//! Inter-block L2 reuse model.
//!
//! GEMM-style kernels fetch each `A` panel once per grid *row* and each `B`
//! panel once per grid *column*; all other fetches of the same panel within
//! a concurrently-resident wave hit in L2. The model assumes the runtime
//! rasterizes blocks in a swizzled (≈square) super-tile — standard practice
//! for cuBLAS-class kernels and what the paper's hierarchical blocking
//! produces — and degrades reuse when the wave's instantaneous working set
//! overflows the L2 capacity (the RTX 3090's 6 MB makes this bite; the
//! A100's 40 MB and 4090's 72 MB rarely do).

use crate::device::DeviceConfig;
use serde::{Deserialize, Serialize};

/// How a kernel's raw global-load traffic divides between DRAM and L2 hits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficSplit {
    /// Bytes that must come from DRAM.
    pub dram_bytes: f64,
    /// Bytes served by L2 hits.
    pub l2_hit_bytes: f64,
    /// `dram_bytes / (dram_bytes + l2_hit_bytes)`.
    pub miss_fraction: f64,
}

/// Per-block traffic description for the reuse analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockTraffic {
    /// Bytes of `A` loaded by one block over its whole lifetime
    /// (shared by every block in the same grid row).
    pub a_bytes: f64,
    /// Bytes of `B′` + `D` + `col_info` loaded by one block
    /// (shared by every block in the same grid column).
    pub bcol_bytes: f64,
    /// Bytes with no inter-block reuse (e.g. unstructured gathers).
    pub private_bytes: f64,
}

impl BlockTraffic {
    /// Raw bytes one block loads.
    pub fn total(&self) -> f64 {
        self.a_bytes + self.bcol_bytes + self.private_bytes
    }
}

/// Estimate the DRAM/L2 split for a grid of `grid_y × grid_x` blocks of
/// which `wave_blocks` run concurrently, each block loading `traffic`
/// **per main-loop iteration**; blocks advance through `iters` iterations
/// roughly in lockstep, so one iteration's panels form the instantaneous
/// L2 working set.
pub fn split_traffic(
    dev: &DeviceConfig,
    grid_y: usize,
    grid_x: usize,
    wave_blocks: usize,
    traffic: &BlockTraffic,
    _iters: usize,
) -> TrafficSplit {
    let total_blocks = (grid_y * grid_x) as f64;
    let raw_total = total_blocks * traffic.total();
    if raw_total == 0.0 {
        return TrafficSplit {
            dram_bytes: 0.0,
            l2_hit_bytes: 0.0,
            miss_fraction: 0.0,
        };
    }
    let wave = wave_blocks.max(1).min(grid_y * grid_x);

    // Swizzled rasterization: the wave covers an ≈square region of the grid.
    let sx = (wave as f64).sqrt().ceil().min(grid_x as f64).max(1.0);
    let sy = ((wave as f64) / sx).ceil().min(grid_y as f64).max(1.0);

    // Unique bytes a wave must pull: one A panel per covered row, one
    // B-column panel per covered column, private bytes always.
    let unique_per_wave =
        sy * traffic.a_bytes + sx * traffic.bcol_bytes + wave as f64 * traffic.private_bytes;
    let raw_per_wave = wave as f64 * traffic.total();

    // Capacity: reuse needs the current iteration's panels to stay resident.
    // Double-buffered consumers keep ~2 slices alive. Even when they fit,
    // scheduling is never a perfect swizzle — cap reuse quality below 1.
    let working_set = 2.0 * (sy * traffic.a_bytes + sx * traffic.bcol_bytes);
    let capacity = 0.8 * dev.l2_bytes as f64;
    let reuse_quality = if working_set <= capacity {
        0.95
    } else {
        0.95 * capacity / working_set
    };

    let dram_per_wave = unique_per_wave + (raw_per_wave - unique_per_wave) * (1.0 - reuse_quality);
    let miss_fraction = (dram_per_wave / raw_per_wave).clamp(0.0, 1.0);
    let dram_bytes = raw_total * miss_fraction;
    TrafficSplit {
        dram_bytes,
        l2_hit_bytes: raw_total - dram_bytes,
        miss_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{a100_80g, rtx3090};

    /// Per-iteration tile traffic of a blocked GEMM (`ks`-deep slice).
    fn gemm_traffic(ms: usize, ns: usize, ks: usize) -> BlockTraffic {
        BlockTraffic {
            a_bytes: (ms * ks * 4) as f64,
            bcol_bytes: (ns * ks * 4) as f64,
            private_bytes: 0.0,
        }
    }

    #[test]
    fn full_reuse_on_big_l2() {
        // 4096^3 dense GEMM with 64x128 tiles, ks=96 slices, on A100: wave
        // of 108 blocks over a 64x32 grid. Unique traffic is far below raw.
        let dev = a100_80g();
        let t = gemm_traffic(64, 128, 96);
        let split = split_traffic(&dev, 64, 32, 108, &t, 43);
        assert!(split.miss_fraction < 0.25, "got {}", split.miss_fraction);
        assert!(split.dram_bytes > 0.0);
        assert!(split.l2_hit_bytes > split.dram_bytes);
    }

    #[test]
    fn small_l2_degrades_reuse() {
        let t = gemm_traffic(64, 128, 1024); // big slices strain a 6MB L2
        let a100 = split_traffic(&a100_80g(), 64, 32, 108, &t, 4);
        let r3090 = split_traffic(&rtx3090(), 64, 32, 82, &t, 4);
        assert!(
            r3090.miss_fraction >= a100.miss_fraction,
            "3090 (6MB L2) must miss at least as much as A100 (40MB): {} vs {}",
            r3090.miss_fraction,
            a100.miss_fraction
        );
    }

    #[test]
    fn private_traffic_never_hits() {
        let dev = a100_80g();
        let t = BlockTraffic {
            a_bytes: 0.0,
            bcol_bytes: 0.0,
            private_bytes: 1e6,
        };
        let split = split_traffic(&dev, 16, 16, 108, &t, 10);
        assert!((split.miss_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_block_wave_has_no_reuse() {
        let dev = a100_80g();
        let t = gemm_traffic(64, 64, 256);
        let split = split_traffic(&dev, 8, 8, 1, &t, 4);
        // One block per wave: unique == raw.
        assert!((split.miss_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_harmless() {
        let dev = a100_80g();
        let t = BlockTraffic {
            a_bytes: 0.0,
            bcol_bytes: 0.0,
            private_bytes: 0.0,
        };
        let split = split_traffic(&dev, 4, 4, 8, &t, 4);
        assert_eq!(split.dram_bytes, 0.0);
        assert_eq!(split.miss_fraction, 0.0);
    }

    #[test]
    fn more_concurrency_means_more_reuse() {
        let dev = a100_80g();
        let t = gemm_traffic(64, 128, 96);
        let small = split_traffic(&dev, 64, 32, 16, &t, 43);
        let large = split_traffic(&dev, 64, 32, 216, &t, 43);
        assert!(large.miss_fraction < small.miss_fraction);
    }

    #[test]
    fn miss_fraction_bounded() {
        let dev = rtx3090();
        for wave in [1usize, 13, 82, 400] {
            let t = gemm_traffic(128, 128, 512);
            let s = split_traffic(&dev, 32, 32, wave, &t, 16);
            assert!((0.0..=1.0).contains(&s.miss_fraction));
            assert!(
                (s.dram_bytes + s.l2_hit_bytes - 1024.0 * t.total()).abs() / (1024.0 * t.total())
                    < 1e-9,
                "conservation of bytes"
            );
        }
    }
}
