//! The Sputnik baseline — unstructured sparse×dense SpMM (Gale et al.).
//!
//! Sputnik ignores the N:M structure entirely: the pruned `B` is handed
//! over as a generic CSR matrix (transposed, so output columns become CSR
//! rows) and a row-split kernel assigns one warp per output row. Per
//! nonzero it streams an `m`-wide row of the dense operand — traffic that
//! scales with `nnz × m` instead of NM-SpMM's blocked working set, so the
//! kernel is deeply memory bound at every sparsity level ("poorer
//! performance due to its direct handling of unstructured sparse patterns",
//! §IV-D). The gathers mostly hit L2 (the dense operand is small relative
//! to the gathered volume), which the bespoke timing model below accounts
//! for explicitly; unlike the blocked kernels it does not share the
//! `KernelProfile` iteration structure.

use crate::common::grid_dims;
use gpu_sim::device::DeviceConfig;
use gpu_sim::l2::TrafficSplit;
use gpu_sim::stats::KernelStats;
use gpu_sim::timing::{Bound, LaunchReport, RoundBreakdown};
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use serde::{Deserialize, Serialize};

/// Output rows handled per thread block (4 warps, one CSR row each).
const ROWS_PER_BLOCK: usize = 4;
/// Load-imbalance allowance: N:M-pruned inputs are perfectly balanced, but
/// Sputnik's wavefront still pays scheduling skew on ragged row tails.
const IMBALANCE: f64 = 1.08;

/// The Sputnik unstructured-SpMM baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SputnikKernel;

impl SputnikKernel {
    /// Analytic estimate without data.
    pub fn estimate(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> LaunchReport {
        let w = cfg.compressed_rows(k);
        let nnz = (w * n) as f64; // every output column has exactly w nonzeros
        let useful_flops = 2.0 * m as f64 * n as f64 * w as f64;

        // --- Compute ---
        let comp_cycles = (nnz * m as f64) / (dev.fma_per_clock_per_sm() * dev.sm_count as f64);

        // --- Memory ---
        // Raw gather volume: an m-row of A per nonzero, plus CSR metadata.
        let gather_raw = nnz * m as f64 * 4.0;
        let csr_bytes = nnz * 8.0; // 4B value + 4B column index
        let c_bytes = (m * n * 4) as f64;
        // Sputnik is oblivious to the N:M structure, but the cache is not:
        // all L output columns of one pruning window carry identical
        // k-indices, so consecutive CSR rows re-gather the same A rows and
        // ~ (L−1)/L of the volume hits in cache; the L2 pipe still has to
        // serve every byte.
        let share = cfg.l.max(1) as f64;
        let unique_a = (m * k * 4) as f64;
        let dram_gather = (gather_raw / share).max(unique_a.min(gather_raw));
        let l2_hit_bytes = gather_raw - dram_gather;
        let dram_bytes = dram_gather + csr_bytes + c_bytes;
        let mem_cycles =
            dram_bytes / dev.dram_bytes_per_clock() + l2_hit_bytes / dev.l2_bytes_per_clock();

        // --- Assemble ---
        let cycles = comp_cycles.max(mem_cycles) * IMBALANCE / dev.sustained_efficiency;
        let seconds = cycles / dev.clock_hz();
        let tflops = useful_flops / seconds / 1e12;
        let grid = grid_dims(n, 1, ROWS_PER_BLOCK, 1);
        LaunchReport {
            name: "Sputnik SpMM".into(),
            cycles,
            seconds,
            tflops,
            efficiency: tflops / dev.peak_fp32_tflops(),
            bound: if mem_cycles >= comp_cycles {
                Bound::Memory
            } else {
                Bound::Compute
            },
            waves: (grid.0).div_ceil(dev.sm_count * 8).max(1),
            blocks_per_sm: 8,
            traffic: TrafficSplit {
                dram_bytes,
                l2_hit_bytes,
                miss_fraction: dram_bytes / (dram_bytes + l2_hit_bytes),
            },
            round: RoundBreakdown {
                compute: comp_cycles,
                shared: 0.0,
                memory: mem_cycles,
                critical_path: 0.0,
            },
        }
    }

    /// Predicted event counts and timing-model report for `A[m][k] ⊛ sb`,
    /// without touching `A`. The CSR `nnz` is counted from the index
    /// structure: the `(u, j)` whose dense row lies inside `k` (a ragged
    /// last window's padding holds none).
    pub fn predict(
        &self,
        dev: &DeviceConfig,
        m: usize,
        sb: &NmSparseMatrix,
    ) -> (KernelStats, LaunchReport) {
        let (k, n, cfg) = (sb.k(), sb.cols(), sb.cfg());
        let d = sb.indices();
        let nnz: u64 = (0..sb.w())
            .map(|u| {
                let base = u / cfg.n * cfg.m;
                (0..n)
                    .filter(|&j| base + (d.get(u, j / cfg.l) as usize) < k)
                    .count() as u64
            })
            .sum();
        let stats = KernelStats {
            ffma: nnz * m as u64,
            ldg_bytes_a: nnz * m as u64 * 4,
            ldg_bytes_b: nnz * 8,
            stg_bytes: (m * n * 4) as u64,
            ldg_sectors: nnz * m.div_ceil(8) as u64 + nnz / 4 + 1,
            blocks: n.div_ceil(ROWS_PER_BLOCK) as u64,
            main_loop_iters: nnz.div_ceil(32),
            ..Default::default()
        };
        (stats, self.estimate(dev, m, n, k, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseGemmKernel;
    use crate::params::BlockingParams;
    use gpu_sim::device::a100_80g;
    use nm_core::matrix::MatrixF32;

    #[test]
    fn memory_bound_and_slow_at_moderate_sparsity() {
        // Fig. 9: Sputnik sits below the cuBLAS line at 50%.
        let dev = a100_80g();
        let cfg = NmConfig::new(8, 16, 32).unwrap();
        let sputnik = SputnikKernel.estimate(&dev, 4096, 4096, 4096, cfg);
        let dense = DenseGemmKernel::new(BlockingParams::large())
            .estimate(&dev, 4096, 4096, 4096)
            .unwrap();
        assert_eq!(sputnik.bound, Bound::Memory);
        assert!(
            sputnik.seconds > dense.seconds,
            "Sputnik {} must lose to cuBLAS {} at 50%",
            sputnik.seconds,
            dense.seconds
        );
    }

    #[test]
    fn gains_ground_at_extreme_sparsity() {
        // Its traffic scales with nnz, so 87.5% is ~4x faster than 50%.
        let dev = a100_80g();
        let t50 = SputnikKernel
            .estimate(&dev, 4096, 4096, 4096, NmConfig::new(8, 16, 32).unwrap())
            .seconds;
        let t875 = SputnikKernel
            .estimate(&dev, 4096, 4096, 4096, NmConfig::new(2, 16, 32).unwrap())
            .seconds;
        assert!(
            t875 < t50 / 2.5,
            "87.5% ({t875}) should be ≫ faster than 50% ({t50})"
        );
    }

    #[test]
    fn nnz_matches_structure() {
        let dev = a100_80g();
        let cfg = NmConfig::new(4, 16, 4).unwrap();
        let bd = MatrixF32::random(64, 32, 6);
        let sb = NmSparseMatrix::prune_magnitude(&bd, cfg).unwrap();
        let (stats, _) = SputnikKernel.predict(&dev, 16, &sb);
        // nnz = w * n = 16 * 32; FMA = nnz * m.
        assert_eq!(stats.ffma, 16 * 32 * 16);
        // k = 50 leaves two real rows in the last 16-row window, so two
        // of its four selections fall on padding and are not nonzeros.
        let bd = MatrixF32::random(50, 32, 7);
        let sb = NmSparseMatrix::prune_magnitude(&bd, cfg).unwrap();
        let (stats, _) = SputnikKernel.predict(&dev, 1, &sb);
        assert_eq!(stats.ffma, (3 * 4 + 2) * 32);
    }
}
