//! Sparse Tensor Core 2:4 stand-in (cuSPARSELt-style).
//!
//! The paper's related work (§II-B) contrasts NM-SpMM with NVIDIA's
//! hardware path: Ampere/Ada Sparse Tensor Cores double the *Tensor Core*
//! math throughput for the fixed element-wise 2:4 pattern (Mishra et al.).
//! NM-SpMM's pitch is generality (any N:M, any vector length, CUDA cores,
//! no fine-tuning lock-in); this module quantifies what that generality
//! costs against the specialized hardware when — and only when — the
//! pattern happens to be 2:4.
//!
//! Model: a TF32/FP32-in-TF32-out tensor-core GEMM at the device's TC
//! throughput, doubled by the sparsity feature, bound by the same DRAM/L2
//! model as everything else. Like every simulated kernel it is analytic
//! only (the math is the same masked GEMM, executed by fixed-function
//! hardware).

use crate::common::grid_dims;
use gpu_sim::device::DeviceConfig;
use gpu_sim::l2::{split_traffic, BlockTraffic, TrafficSplit};
use gpu_sim::timing::{Bound, LaunchReport, RoundBreakdown, SimError};
use nm_core::pattern::NmConfig;
use serde::{Deserialize, Serialize};

/// TF32 tensor-core throughput relative to the FP32 CUDA-core peak
/// (A100: 156 vs 19.5 TFLOPS = 8×; consumer Ampere/Ada: ~4× without the
/// datacenter TC width). We use the conservative consumer ratio so the
/// comparison is not A100-flattering.
const TC_DENSE_RATIO: f64 = 4.0;
/// Sparse Tensor Cores double math throughput for 2:4 operands.
const TC_SPARSE_BONUS: f64 = 2.0;

/// The fixed-pattern hardware baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SparseTensorCoreKernel;

impl SparseTensorCoreKernel {
    /// `true` iff the hardware path supports this configuration at all.
    pub fn supports(cfg: NmConfig) -> bool {
        cfg.n == 2 && cfg.m == 4
    }

    /// Analytic estimate. Returns `Err` for any pattern other than 2:4 —
    /// the whole point of the comparison.
    pub fn estimate(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<LaunchReport, SimError> {
        if !Self::supports(cfg) {
            return Err(SimError::Unlaunchable {
                reason: format!(
                    "sparse tensor cores support only 2:4 element-wise sparsity, not {cfg}"
                ),
            });
        }
        let (ms, ns, ks) = (128usize, 128usize, 32usize);
        let grid = grid_dims(m, n, ms, ns);
        let useful_flops = 2.0 * m as f64 * n as f64 * (k as f64 / 2.0);

        let math_flops_per_sec =
            dev.peak_fp32_flops() * TC_DENSE_RATIO * TC_SPARSE_BONUS * dev.sustained_efficiency;
        let comp_cycles = useful_flops / math_flops_per_sec * dev.clock_hz();

        // Traffic: A read per column block, compressed B (half) + metadata.
        let iters = k.div_ceil(ks).max(1);
        let traffic = BlockTraffic {
            a_bytes: (ms * ks * 4) as f64,
            bcol_bytes: (ks / 2 * ns * 4) as f64 * 1.0625, // values + 2-bit metadata
            private_bytes: 0.0,
        };
        let wave = (grid.0 * grid.1).min(dev.sm_count);
        let split = split_traffic(dev, grid.0, grid.1, wave, &traffic, iters);
        let total_blocks = (grid.0 * grid.1) as f64;
        let bytes_total = total_blocks * iters as f64 * traffic.total() + (m * n * 4) as f64;
        let mem_cycles = bytes_total * split.miss_fraction / dev.dram_bytes_per_clock()
            + bytes_total * (1.0 - split.miss_fraction) / dev.l2_bytes_per_clock();

        let cycles = comp_cycles.max(mem_cycles);
        let seconds = cycles / dev.clock_hz();
        let tflops = useful_flops / seconds / 1e12;
        Ok(LaunchReport {
            name: "sparse tensor core 2:4".into(),
            cycles,
            seconds,
            tflops,
            // Efficiency against the *CUDA core* peak, like every other
            // report — values above 1.0 are the hardware advantage.
            efficiency: tflops / dev.peak_fp32_tflops(),
            bound: if mem_cycles > comp_cycles {
                Bound::Memory
            } else {
                Bound::Compute
            },
            waves: (grid.0 * grid.1).div_ceil(dev.sm_count).max(1),
            blocks_per_sm: 1,
            traffic: TrafficSplit {
                dram_bytes: bytes_total * split.miss_fraction,
                l2_hit_bytes: bytes_total * (1.0 - split.miss_fraction),
                miss_fraction: split.miss_fraction,
            },
            round: RoundBreakdown {
                compute: comp_cycles,
                shared: 0.0,
                memory: mem_cycles,
                critical_path: 0.0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BlockingParams;
    use crate::{NmSpmmKernel, NmVersion};
    use gpu_sim::device::a100_80g;

    #[test]
    fn rejects_everything_but_2_4() {
        let dev = a100_80g();
        for cfg in [
            NmConfig::new(2, 16, 32).unwrap(),
            NmConfig::new(4, 8, 4).unwrap(),
            NmConfig::new(1, 4, 4).unwrap(),
        ] {
            assert!(SparseTensorCoreKernel
                .estimate(&dev, 512, 512, 512, cfg)
                .is_err());
        }
        assert!(SparseTensorCoreKernel
            .estimate(&dev, 512, 512, 512, NmConfig::new(2, 4, 1).unwrap())
            .is_ok());
    }

    #[test]
    fn hardware_path_beats_cuda_cores_at_2_4() {
        // The expected result: for the one pattern it supports, fixed
        // hardware wins big — that is exactly why NM-SpMM's pitch is
        // flexibility, not raw 2:4 speed.
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 4, 32).unwrap();
        let tc = SparseTensorCoreKernel
            .estimate(&dev, 4096, 4096, 4096, cfg)
            .unwrap();
        let ours = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large())
            .estimate(&dev, 4096, 4096, 4096, cfg, None)
            .unwrap();
        assert!(
            tc.seconds < ours.seconds,
            "sparse TC {} must beat the CUDA-core kernel {}",
            tc.seconds,
            ours.seconds
        );
        assert!(
            tc.efficiency > 1.0,
            "TC throughput exceeds the CUDA-core peak"
        );
    }

    #[test]
    fn small_problems_are_memory_bound_on_tc() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 4, 32).unwrap();
        let rep = SparseTensorCoreKernel
            .estimate(&dev, 256, 256, 16384, cfg)
            .unwrap();
        assert_eq!(
            rep.bound,
            Bound::Memory,
            "skinny shapes cannot feed the TCs"
        );
    }
}
