//! The nmSPARSE baseline (Lin et al., the state of the art the paper
//! compares against).
//!
//! Modeled after nmSPARSE's vector-wise (VW) kernel as the paper describes
//! its shortcomings (§II-B, §IV-E): it supports arbitrary N:M ratios on
//! CUDA cores, but
//!
//! * iterates one pruning window at a time (`ks = M`), so its main loop is
//!   short and latency-exposed and its block-level arithmetic intensity is
//!   far below what the shared-memory budget allows ("does not fully
//!   exploit the locality introduced by N:M sparsity"),
//! * always loads the full `As` working set (no packing) and has no
//!   sparsity-aware path ("lacks … optimization for different sparsity
//!   levels"),
//! * uses scalar (LDS.32) fragment loads without the broadcast layout, so
//!   its inner kernel is shared-memory throughput limited, with 2-way bank
//!   conflicts on the gathered `A` fragments (no padding).
//!
//! The result lands in the 49-73%-of-peak band of the paper's Fig. 10.

use crate::common::{grid_dims, sectors_runs};
use gpu_sim::device::DeviceConfig;
use gpu_sim::l2::BlockTraffic;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::stats::KernelStats;
use gpu_sim::timing::{estimate as sim_estimate, KernelProfile, LaunchReport, PipelineMode};
use nm_core::error::{NmError, Result};
use nm_core::pattern::NmConfig;
use serde::{Deserialize, Serialize};

/// Fixed nmSPARSE-style blocking.
const MS: usize = 32;
const NS: usize = 64;
const MT: usize = 4;
const NT: usize = 4;

/// The nmSPARSE VW baseline kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NmSparseKernel;

impl NmSparseKernel {
    /// Analytic estimate without data.
    pub fn estimate(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<LaunchReport> {
        self.predict(dev, m, n, k, cfg).map(|(_, report)| report)
    }

    /// Predicted event counts and timing-model report, without data.
    pub fn predict(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<(KernelStats, LaunchReport)> {
        let (profile, stats) = self.build_profile(dev, m, n, k, cfg);
        let report = sim_estimate(dev, &profile).map_err(|e| NmError::InvalidBlocking {
            reason: e.to_string(),
        })?;
        Ok((stats, report))
    }

    fn build_profile(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> (KernelProfile, KernelStats) {
        let (n_keep, m_win) = (cfg.n, cfg.m);
        let qs = NS.div_ceil(cfg.l).max(1);
        let threads = MS * NS / (MT * NT); // 128
        let warps = threads / 32;
        let w = cfg.compressed_rows(k);
        let iters = k.div_ceil(m_win).max(1); // one pruning window per trip

        // Per-iteration tiles: full A window (no packing), N rows of B'.
        let a_bytes = (m_win * MS * 4) as u64;
        let b_bytes = (n_keep * NS * 4) as u64;
        let d_bytes = (n_keep * qs) as u64;
        let fill_bytes = a_bytes + b_bytes + d_bytes;

        // Inner loop: ws = N steps; scalar loads, no broadcast — every lane's
        // element is a separate word, (mt+nt) words per lane per step.
        let inner_bytes = (n_keep * warps * 32 * (MT + NT) * 4) as u64;
        // 2-way conflicts on the gathered At fragments (~half the traffic
        // replays once).
        let replay_bytes = inner_bytes / 2;
        let lds_cycles =
            (fill_bytes + inner_bytes + replay_bytes) as f64 / dev.smem_bytes_per_clock;

        let ffma_iter = (MS * NS * n_keep) as u64;
        let smem = 4 * (m_win * MS + n_keep * NS) + n_keep * qs; // single buffered
        let resources = BlockResources {
            threads,
            regs_per_thread: MT * NT + MT + NT + 26,
            smem_bytes: smem,
        };

        let grid = grid_dims(m, n, MS, NS);
        let blocks = (grid.0 * grid.1) as u64;
        let stg = (MS * NS * 4) as u64;

        let profile = KernelProfile {
            name: format!("nmSPARSE VW [{MS}x{NS}]"),
            grid,
            resources,
            iters_per_block: iters,
            comp_cycles_per_iter: ffma_iter as f64 / dev.fma_per_clock_per_sm(),
            lds_cycles_per_iter: lds_cycles,
            g2s_per_iter: BlockTraffic {
                a_bytes: a_bytes as f64,
                bcol_bytes: (b_bytes + d_bytes) as f64,
                private_bytes: 0.0,
            },
            dependent_load_chains: 0.0,
            pipeline: PipelineMode::Serial,
            inner_double_buffer: false,
            stg_bytes_per_block: stg as f64,
            useful_flops: 2.0 * m as f64 * n as f64 * w as f64,
        };
        let iters_u = iters as u64;
        let stats = KernelStats {
            ffma: blocks * iters_u * ffma_iter,
            ldg_bytes_a: blocks * iters_u * a_bytes,
            ldg_bytes_b: blocks * iters_u * b_bytes,
            ldg_bytes_d: blocks * iters_u * d_bytes,
            stg_bytes: blocks * stg,
            ldg_sectors: blocks
                * iters_u
                * (sectors_runs(m_win, MS * 4) + sectors_runs(n_keep, NS * 4) + 1),
            lds_requests: blocks * iters_u * (fill_bytes + inner_bytes) / 128,
            lds_replays: blocks * iters_u * replay_bytes / 128,
            sts_requests: blocks * iters_u * fill_bytes / 128,
            lds_bytes: blocks * iters_u * inner_bytes,
            sts_bytes: blocks * iters_u * fill_bytes,
            barriers: blocks * iters_u * 2,
            blocks,
            main_loop_iters: blocks * iters_u,
            ..Default::default()
        };
        (profile, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nm::{NmSpmmKernel, NmVersion};
    use crate::params::BlockingParams;
    use gpu_sim::device::a100_80g;

    #[test]
    fn slower_than_nm_spmm_v3() {
        // The paper's headline: NM-SpMM is 1.2-1.8x faster than nmSPARSE.
        let dev = a100_80g();
        for cfg in [
            NmConfig::new(8, 16, 32).unwrap(),
            NmConfig::new(2, 16, 32).unwrap(),
        ] {
            let base = NmSparseKernel
                .estimate(&dev, 4096, 4096, 4096, cfg)
                .unwrap();
            let ours = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large())
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .unwrap();
            assert!(
                ours.seconds < base.seconds,
                "{cfg}: NM-SpMM {} must beat nmSPARSE {}",
                ours.seconds,
                base.seconds
            );
        }
    }

    #[test]
    fn efficiency_in_the_fig10_band() {
        // nmSPARSE reaches 49-73% of peak on the A100 across the four
        // levels; allow a generous band around it.
        let dev = a100_80g();
        for cfg in [
            NmConfig::new(8, 16, 32).unwrap(),
            NmConfig::new(6, 16, 32).unwrap(),
            NmConfig::new(4, 16, 32).unwrap(),
            NmConfig::new(2, 16, 32).unwrap(),
        ] {
            let rep = NmSparseKernel
                .estimate(&dev, 4096, 4096, 4096, cfg)
                .unwrap();
            assert!(
                (0.3..0.85).contains(&rep.efficiency),
                "{cfg}: nmSPARSE efficiency {} outside the expected band",
                rep.efficiency
            );
        }
    }

    #[test]
    fn has_bank_conflict_replays() {
        let dev = a100_80g();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        let (stats, _) = NmSparseKernel.predict(&dev, 64, 64, 64, cfg).unwrap();
        assert!(stats.lds_replays > 0, "baseline must model conflicts");
    }
}
