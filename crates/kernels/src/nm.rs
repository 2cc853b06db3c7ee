//! The NM-SpMM kernel — paper Listings 1–4 — in three step-wise versions.
//!
//! * **V1** (`Listing 1+2`): hierarchical blocking only. Tiles of `A`, `B′`
//!   and `D` are staged through shared memory, warps tile the block, each
//!   thread computes an `mt × nt` outer product. Main loop is serial
//!   (`load → __syncthreads → compute`) and `A` is always loaded in full.
//! * **V2** (`Listing 3`): V1 + sparsity-aware memory access. When sparsity
//!   crosses the 70% threshold, `As` is packed through `col_info`, cutting
//!   its footprint to the window-union fraction; this adds the
//!   `col_info → As` dependent-load chain.
//! * **V3** (`Listing 4`): V2 + pipelining. Shared-memory tiles are double
//!   buffered so iteration `i+1`'s global loads overlap iteration `i`'s
//!   compute, and `At`/`Bt` fragments are double buffered in registers
//!   (plus the `idx[ws]` index prefetch) to break the LDS→FMA WAR hazard.
//!
//! The three versions describe one computation; they differ only in data
//! movement and pipeline structure — exactly the paper's Fig. 7 experiment.
//! The kernel predicts cost ([`NmSpmmKernel::predict`]); it computes no
//! `C`.

use crate::common::{grid_dims, sectors_contig, sectors_runs};
use crate::params::{derive_blocking, Blocking, BlockingParams};
use gpu_sim::device::DeviceConfig;
use gpu_sim::l2::BlockTraffic;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::stats::KernelStats;
use gpu_sim::timing::{
    estimate as sim_estimate, KernelProfile, LaunchReport, PipelineMode, SimError,
};
use nm_analysis::ai::BlockAi;
use nm_analysis::packing::expected_ratio;
use nm_analysis::strategy::{Strategy, StrategyDecision};
use nm_core::colinfo::preprocess;
use nm_core::error::{NmError, Result};
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use serde::{Deserialize, Serialize};

/// The step-wise optimization ladder of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NmVersion {
    /// Hierarchical blocking mechanism (Listings 1–2).
    V1,
    /// V1 + sparsity-aware footprint minimization (Listing 3).
    V2,
    /// V2 + pipelined latency hiding (Listing 4).
    V3,
}

impl NmVersion {
    /// Display name as used in Fig. 7.
    pub fn name(&self) -> &'static str {
        match self {
            NmVersion::V1 => "V1",
            NmVersion::V2 => "V2",
            NmVersion::V3 => "V3",
        }
    }

    /// Whether shared-memory tiles are double buffered.
    pub fn double_buffer(&self) -> bool {
        matches!(self, NmVersion::V3)
    }

    /// Whether `At`/`Bt` fragments are double buffered in registers.
    pub fn inner_double_buffer(&self) -> bool {
        matches!(self, NmVersion::V3)
    }

    /// Whether the sparsity-aware packing path is available.
    pub fn supports_packing(&self) -> bool {
        !matches!(self, NmVersion::V1)
    }

    /// Main-loop pipeline structure.
    pub fn pipeline(&self) -> PipelineMode {
        match self {
            NmVersion::V1 | NmVersion::V2 => PipelineMode::Serial,
            NmVersion::V3 => PipelineMode::DoubleBuffered,
        }
    }
}

/// A fully resolved launch plan for one (device, problem) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NmPlan {
    /// Derived blocking (ks/ws/qs, shared memory, registers).
    pub blocking: Blocking,
    /// Grid shape `(grid_y, grid_x)`.
    pub grid: (usize, usize),
    /// Main-loop trip count.
    pub iters: usize,
    /// Compressed depth `w` of the problem.
    pub w: usize,
    /// Whether this launch packs `As` through `col_info`.
    pub packing: bool,
    /// Split-K factor: number of k-slices computed by separate blocks
    /// (1 = off). Engaged when the output grid is too small to fill the
    /// device; partial tiles are reduced in an epilogue pass.
    pub split_k: usize,
    /// The analysis-model decision that produced `packing`.
    pub decision: StrategyDecision,
}

/// The NM-SpMM kernel at a chosen version and Table I parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NmSpmmKernel {
    /// Optimization level.
    pub version: NmVersion,
    /// Table I blocking parameters.
    pub params: BlockingParams,
}

impl NmSpmmKernel {
    /// Kernel with explicit parameters.
    pub fn new(version: NmVersion, params: BlockingParams) -> Self {
        Self { version, params }
    }

    /// Kernel with `Para_Init_Table`-selected parameters.
    pub fn auto(version: NmVersion, m: usize, n: usize) -> Self {
        Self {
            version,
            params: BlockingParams::para_init_table(m, n),
        }
    }

    /// Resolve blocking, strategy and grid for a problem.
    pub fn plan(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<NmPlan> {
        let blocking = derive_blocking(
            dev,
            self.params,
            cfg,
            k,
            self.version.double_buffer(),
            self.version.inner_double_buffer(),
        )?;
        let w = cfg.compressed_rows(k);
        let iters = w.div_ceil(blocking.ws).max(1);
        let block_ai = BlockAi {
            ms: blocking.params.ms,
            ns: blocking.params.ns,
            ks: blocking.ks,
            ws: blocking.ws,
        };
        let decision = Strategy::decide(dev, cfg, block_ai, blocking.qs);
        let packing = self.version.supports_packing() && decision.packing;
        let grid = grid_dims(m, n, blocking.params.ms, blocking.params.ns);
        // Split-K: when the output grid cannot occupy the device, carve the
        // main loop into k-slices owned by separate blocks (classic
        // split-K GEMM; partials are summed in an epilogue reduction).
        let blocks = grid.0 * grid.1;
        let split_k = if blocks < dev.sm_count && iters > 1 {
            (dev.sm_count / blocks).clamp(1, iters)
        } else {
            1
        };
        Ok(NmPlan {
            blocking,
            grid,
            iters,
            w,
            packing,
            split_k,
            decision,
        })
    }

    /// Analytic estimate: timing-model report without touching data.
    ///
    /// `packing_ratio` overrides the expected window-union model (pass the
    /// measured `ColInfo::mean_packing_ratio` when available).
    pub fn estimate(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
        packing_ratio: Option<f64>,
    ) -> Result<LaunchReport> {
        self.predict(dev, m, n, k, cfg, packing_ratio)
            .map(|(_, report)| report)
    }

    /// Predicted event counts and timing-model report for one launch,
    /// built from geometry alone. `packing_ratio` as in
    /// [`NmSpmmKernel::estimate`].
    pub fn predict(
        &self,
        dev: &DeviceConfig,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
        packing_ratio: Option<f64>,
    ) -> Result<(KernelStats, LaunchReport)> {
        let plan = self.plan(dev, m, n, k, cfg)?;
        let ratio = self.effective_ratio(&plan, cfg, packing_ratio);
        let (profile, stats) = self.build_profile(dev, &plan, m, n, cfg, ratio);
        let report = sim_estimate(dev, &profile).map_err(sim_to_nm)?;
        Ok((stats, report))
    }

    /// The weight-derived `col_info` packing ratio of `sb` at this
    /// kernel's blocking: the measured mean ratio when its launches pack
    /// `As`, `None` when they do not.
    pub fn measured_packing_ratio(
        &self,
        dev: &DeviceConfig,
        sb: &NmSparseMatrix,
    ) -> Result<Option<f64>> {
        // Blocking and the packing decision do not depend on `m`.
        let plan = self.plan(dev, 1, sb.cols(), sb.k(), sb.cfg())?;
        if !plan.packing {
            return Ok(None);
        }
        let col_info = preprocess(sb, plan.blocking.ks, plan.blocking.params.ns)?;
        Ok(Some(col_info.mean_packing_ratio()))
    }

    fn effective_ratio(&self, plan: &NmPlan, cfg: NmConfig, packing_ratio: Option<f64>) -> f64 {
        if plan.packing {
            packing_ratio.unwrap_or_else(|| expected_ratio(cfg, plan.blocking.qs))
        } else {
            1.0
        }
    }

    /// Build the timing profile *and* the aggregate event counts from the
    /// same per-iteration quantities, so the two can never drift apart.
    fn build_profile(
        &self,
        dev: &DeviceConfig,
        plan: &NmPlan,
        m: usize,
        n: usize,
        _cfg: NmConfig,
        packing_ratio: f64,
    ) -> (KernelProfile, KernelStats) {
        let b = &plan.blocking;
        let p = b.params;
        let (ms, ns, ks, ws, qs) = (p.ms, p.ns, b.ks, b.ws, b.qs);
        let warps = p.warps();

        // --- Per-iteration global loads (bytes) ---
        let a_cols = if plan.packing {
            (ks as f64 * packing_ratio).round().max(1.0) as usize
        } else {
            ks
        };
        let a_bytes = (a_cols * ms * 4) as u64;
        let b_bytes = (ws * ns * 4) as u64;
        let d_bytes = (ws * qs) as u64; // u8 entries, blocked layout
        let colinfo_bytes = if plan.packing { (a_cols * 2) as u64 } else { 0 };

        // --- Per-iteration shared-memory pipe cycles ---
        // Tile fills (STS) move every loaded byte through the smem pipe.
        let fill_bytes = a_bytes + b_bytes + d_bytes;
        // Inner loop: per warp per p, an mr-long At column segment
        // (broadcast across the lane columns) and an nr-long Bt row segment
        // (broadcast across the lane rows) — unique bytes only.
        let inner_bytes = (ws * warps * (p.mr + p.nr) * 4) as u64;
        // Index reads: V1/V2 read Ds per (warp, p); V3 prefetches once.
        let idx_bytes = if self.version.inner_double_buffer() {
            (ws * qs) as u64
        } else {
            (ws * warps * 32) as u64
        };
        let lds_bytes_iter = inner_bytes + idx_bytes;
        let lds_cycles_iter = (fill_bytes + lds_bytes_iter) as f64 / dev.smem_bytes_per_clock;

        // --- Per-iteration compute ---
        let ffma_iter = (ms * ns * ws) as u64;
        let comp_cycles_iter = ffma_iter as f64 / dev.fma_per_clock_per_sm();

        // --- Resources ---
        let colinfo_smem = if plan.packing {
            2 * ks * if b.double_buffer { 2 } else { 1 }
        } else {
            0
        };
        let resources = BlockResources {
            threads: p.threads(),
            regs_per_thread: b.regs_per_thread,
            smem_bytes: b.smem_bytes + colinfo_smem,
        };

        let (gy, gx) = plan.grid;
        let split = plan.split_k.max(1);
        let blocks = (gy * gx * split) as u64;
        let iters_per_slice = plan.iters.div_ceil(split);
        let iters = (iters_per_slice * split) as u64; // padded slices
                                                      // Partial-tile write plus the epilogue reduction's read+write,
                                                      // amortized per block.
        let stg_bytes_block = if split > 1 {
            (ms * ns * 4 * 3) as u64
        } else {
            (ms * ns * 4) as u64
        };
        let barriers_per_iter = match self.version.pipeline() {
            PipelineMode::Serial => 2,
            PipelineMode::DoubleBuffered => 1,
        };

        let profile = KernelProfile {
            name: format!("NM-SpMM {} [{}x{}]", self.version.name(), ms, ns),
            grid: (gy, gx * split),
            resources,
            iters_per_block: iters_per_slice,
            comp_cycles_per_iter: comp_cycles_iter,
            lds_cycles_per_iter: lds_cycles_iter,
            g2s_per_iter: BlockTraffic {
                a_bytes: a_bytes as f64,
                bcol_bytes: (b_bytes + d_bytes + colinfo_bytes) as f64,
                private_bytes: 0.0,
            },
            dependent_load_chains: if plan.packing { 1.0 } else { 0.0 },
            pipeline: self.version.pipeline(),
            inner_double_buffer: self.version.inner_double_buffer(),
            stg_bytes_per_block: stg_bytes_block as f64,
            useful_flops: 2.0 * m as f64 * n as f64 * plan.w as f64,
        };

        let tile_trips = (gy * gx) as u64 * iters; // total main-loop trips
        let stats = KernelStats {
            ffma: tile_trips * ffma_iter,
            ldg_bytes_a: tile_trips * a_bytes,
            ldg_bytes_b: tile_trips * b_bytes,
            ldg_bytes_d: tile_trips * d_bytes,
            ldg_bytes_colinfo: tile_trips * colinfo_bytes,
            stg_bytes: blocks * stg_bytes_block,
            // A is k-major: each tile column is an ms-long contiguous run;
            // B'/D rows are contiguous.
            ldg_sectors: tile_trips
                * (sectors_runs(a_cols, ms * 4)
                    + sectors_runs(ws, ns * 4)
                    + sectors_contig(ws * qs)
                    + sectors_contig(colinfo_bytes as usize)),
            lds_requests: tile_trips * (lds_bytes_iter + fill_bytes) / 128,
            lds_replays: 0, // padded tiles + broadcast fragments: conflict-free
            sts_requests: tile_trips * fill_bytes / 128,
            lds_bytes: tile_trips * lds_bytes_iter,
            sts_bytes: tile_trips * fill_bytes,
            barriers: tile_trips * barriers_per_iter,
            blocks,
            main_loop_iters: (gy * gx) as u64 * iters,
        };
        (profile, stats)
    }
}

fn sim_to_nm(e: SimError) -> NmError {
    NmError::InvalidBlocking {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a100_80g;
    use nm_core::matrix::MatrixF32;
    use nm_core::prune::PrunePolicy;

    fn pruned(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
        let bd = MatrixF32::random(k, n, 22);
        NmSparseMatrix::prune(&bd, cfg, PrunePolicy::Random { seed }).unwrap()
    }

    #[test]
    fn ragged_problem_dimensions() {
        // m, n, k none of which are multiples of the tile sizes: the grid
        // rounds up and the predicted FMAs cover every useful one.
        let dev = a100_80g();
        for (version, cfg, m, n, k) in [
            (
                NmVersion::V3,
                NmConfig::new(4, 16, 32).unwrap(),
                100,
                200,
                300,
            ),
            (
                NmVersion::V1,
                NmConfig::new(8, 16, 32).unwrap(),
                70,
                90,
                130,
            ),
        ] {
            let kern = NmSpmmKernel::auto(version, m, n);
            let plan = kern.plan(&dev, m, n, k, cfg).unwrap();
            let p = plan.blocking.params;
            assert_eq!(plan.grid, (m.div_ceil(p.ms), n.div_ceil(p.ns)));
            let (stats, report) = kern.predict(&dev, m, n, k, cfg, None).unwrap();
            let (gy, gx) = plan.grid;
            assert_eq!(stats.blocks, (gy * gx * plan.split_k) as u64);
            assert!(stats.ffma >= (m * n * cfg.compressed_rows(k)) as u64);
            assert!(report.seconds > 0.0 && report.seconds.is_finite());
        }
    }

    #[test]
    fn packing_decision_follows_strategy() {
        let dev = a100_80g();
        let kern = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large());
        let moderate = kern
            .plan(&dev, 1024, 1024, 1024, NmConfig::new(8, 16, 32).unwrap())
            .unwrap();
        assert!(!moderate.packing);
        let high = kern
            .plan(&dev, 1024, 1024, 1024, NmConfig::new(2, 16, 32).unwrap())
            .unwrap();
        assert!(high.packing);
        // V1 never packs.
        let v1 = NmSpmmKernel::new(NmVersion::V1, BlockingParams::large());
        assert!(
            !v1.plan(&dev, 1024, 1024, 1024, NmConfig::new(2, 16, 32).unwrap())
                .unwrap()
                .packing
        );
    }

    #[test]
    fn estimate_matches_run_report() {
        // The prediction for a V3 plan reports this kernel's estimate at
        // the measured col_info ratio.
        use crate::plan::{KernelChoice, Planner};
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let sb = pruned(512, 256, cfg, 9);
        let mut plan = Planner::new(dev.clone()).plan(128, 256, 512, cfg).unwrap();
        plan.choice = KernelChoice::NmV3;
        plan.params = BlockingParams::large();
        let (_, report) = plan.predict(&dev, 128, &sb).unwrap();
        let kern = NmSpmmKernel::new(NmVersion::V3, plan.params);
        let nm = kern.plan(&dev, 128, 256, 512, cfg).unwrap();
        assert!(nm.packing, "2:16 packs on V3");
        let (ks, ns) = (nm.blocking.ks, nm.blocking.params.ns);
        let ratio = preprocess(&sb, ks, ns).unwrap().mean_packing_ratio();
        let est = kern
            .estimate(&dev, 128, 256, 512, cfg, Some(ratio))
            .unwrap();
        assert_eq!(report, est);
    }

    #[test]
    fn versions_get_faster_at_high_sparsity() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 16, 32).unwrap(); // 87.5%
        let mut last = f64::INFINITY;
        for v in [NmVersion::V1, NmVersion::V2, NmVersion::V3] {
            let t = NmSpmmKernel::new(v, BlockingParams::large())
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .unwrap()
                .seconds;
            assert!(
                t <= last * 1.001,
                "{} must not be slower than its predecessor: {t} vs {last}",
                v.name()
            );
            last = t;
        }
    }

    #[test]
    fn split_k_engages_on_skinny_problems() {
        let dev = a100_80g();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        // 64x128 output with the small kernel: a 2x4 = 8-block grid on a
        // 108-SM device -> split-K must engage.
        let kern = NmSpmmKernel::new(NmVersion::V3, BlockingParams::small());
        let plan = kern.plan(&dev, 64, 128, 4096, cfg).unwrap();
        assert!(plan.split_k > 1, "expected split-K, got {}", plan.split_k);
        // And a full-size problem must not split.
        let plan_big = kern.plan(&dev, 4096, 4096, 4096, cfg).unwrap();
        assert_eq!(plan_big.split_k, 1);
    }

    #[test]
    fn split_k_improves_skinny_problem_throughput() {
        let dev = a100_80g();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        let kern = NmSpmmKernel::new(NmVersion::V3, BlockingParams::small());
        let with_split = kern.estimate(&dev, 64, 128, 8192, cfg, None).unwrap();
        // Emulate no-split by comparing against a single-slice profile on a
        // device with few SMs (so split never engages) scaled... instead:
        // check utilization: the split plan must use many more blocks.
        let plan = kern.plan(&dev, 64, 128, 8192, cfg).unwrap();
        assert!(plan.split_k >= 8);
        assert!(
            with_split.efficiency > 0.10,
            "split-K should lift a skinny problem above trivial efficiency, got {}",
            with_split.efficiency
        );
    }

    #[test]
    fn stats_scale_with_grid() {
        let dev = a100_80g();
        let cfg = NmConfig::new(8, 16, 32).unwrap();
        let kern = NmSpmmKernel::new(NmVersion::V1, BlockingParams::small());
        let (s1, _) = kern.predict(&dev, 32, 32, 128, cfg, None).unwrap();
        let (s2, _) = kern.predict(&dev, 64, 64, 128, cfg, None).unwrap();
        assert_eq!(s2.blocks, 4 * s1.blocks);
        assert_eq!(s2.ffma, 4 * s1.ffma);
        assert_eq!(s2.ldg_bytes_a, 4 * s1.ldg_bytes_a);
    }

    #[test]
    fn packed_traffic_is_smaller_than_unpacked() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let sb = pruned(512, 128, cfg, 13);
        let v1 = NmSpmmKernel::new(NmVersion::V1, BlockingParams::small());
        let v2 = NmSpmmKernel::new(NmVersion::V2, BlockingParams::small());
        assert_eq!(v1.measured_packing_ratio(&dev, &sb).unwrap(), None);
        let ratio = v2.measured_packing_ratio(&dev, &sb).unwrap();
        let r = ratio.expect("2:16 packs on V2");
        assert!(r > 2.0 / 16.0 - 1e-12 && r < 1.0, "ratio {r}");
        let (v1, _) = v1.predict(&dev, 128, 128, 512, cfg, None).unwrap();
        let (v2, _) = v2.predict(&dev, 128, 128, 512, cfg, ratio).unwrap();
        assert!(
            v2.ldg_bytes_a < v1.ldg_bytes_a,
            "packing must cut A traffic: {} !< {}",
            v2.ldg_bytes_a,
            v1.ldg_bytes_a
        );
        assert!(v2.ldg_bytes_colinfo > 0);
        assert_eq!(v1.ldg_bytes_colinfo, 0);
    }
}
