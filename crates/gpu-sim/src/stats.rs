//! Per-kernel event accounting — the simulator's Nsight-Compute stand-in.
//!
//! Simulated kernels predict a [`KernelStats`] from the same per-iteration
//! quantities as their timing profile, and the codegen interpreter counts
//! one while it executes. The timing and energy models consume these
//! counts.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Aggregated event counts for one kernel launch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Thread-level fused multiply-adds executed.
    pub ffma: u64,
    /// Bytes loaded from global memory for the `A` operand.
    pub ldg_bytes_a: u64,
    /// Bytes loaded from global memory for `B` / `B′`.
    pub ldg_bytes_b: u64,
    /// Bytes loaded from global memory for the index matrix `D`.
    pub ldg_bytes_d: u64,
    /// Bytes loaded from global memory for `col_info` (packing path only).
    pub ldg_bytes_colinfo: u64,
    /// Bytes stored to global memory (the `C` tile write-back).
    pub stg_bytes: u64,
    /// 32-byte global sectors actually touched (coalescing-aware).
    pub ldg_sectors: u64,
    /// Warp-level shared-memory load requests.
    pub lds_requests: u64,
    /// Shared-memory replays caused by bank conflicts.
    pub lds_replays: u64,
    /// Warp-level shared-memory store requests (tile fills).
    pub sts_requests: u64,
    /// Bytes moved through shared memory by loads.
    pub lds_bytes: u64,
    /// Bytes moved through shared memory by stores.
    pub sts_bytes: u64,
    /// `__syncthreads()` executions (block-level).
    pub barriers: u64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Main-loop iterations summed over all blocks.
    pub main_loop_iters: u64,
}

impl KernelStats {
    /// Useful floating-point operations (2 FLOPs per FMA).
    pub fn flops(&self) -> f64 {
        2.0 * self.ffma as f64
    }

    /// Total bytes read from global memory.
    pub fn ldg_bytes_total(&self) -> u64 {
        self.ldg_bytes_a + self.ldg_bytes_b + self.ldg_bytes_d + self.ldg_bytes_colinfo
    }

    /// Total global traffic (reads + writes).
    pub fn global_bytes_total(&self) -> u64 {
        self.ldg_bytes_total() + self.stg_bytes
    }

    /// Measured arithmetic intensity: FLOPs per global byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.global_bytes_total();
        if b == 0 {
            f64::INFINITY
        } else {
            self.flops() / b as f64
        }
    }

    /// Shared-memory cycles implied by requests + replays (one cycle per
    /// 128-byte warp transaction on all modeled devices).
    pub fn lds_cycles(&self) -> u64 {
        self.lds_requests + self.lds_replays + self.sts_requests
    }
}

impl Add for KernelStats {
    type Output = KernelStats;
    fn add(self, rhs: KernelStats) -> KernelStats {
        KernelStats {
            ffma: self.ffma + rhs.ffma,
            ldg_bytes_a: self.ldg_bytes_a + rhs.ldg_bytes_a,
            ldg_bytes_b: self.ldg_bytes_b + rhs.ldg_bytes_b,
            ldg_bytes_d: self.ldg_bytes_d + rhs.ldg_bytes_d,
            ldg_bytes_colinfo: self.ldg_bytes_colinfo + rhs.ldg_bytes_colinfo,
            stg_bytes: self.stg_bytes + rhs.stg_bytes,
            ldg_sectors: self.ldg_sectors + rhs.ldg_sectors,
            lds_requests: self.lds_requests + rhs.lds_requests,
            lds_replays: self.lds_replays + rhs.lds_replays,
            sts_requests: self.sts_requests + rhs.sts_requests,
            lds_bytes: self.lds_bytes + rhs.lds_bytes,
            sts_bytes: self.sts_bytes + rhs.sts_bytes,
            barriers: self.barriers + rhs.barriers,
            blocks: self.blocks + rhs.blocks,
            main_loop_iters: self.main_loop_iters + rhs.main_loop_iters,
        }
    }
}

impl AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for KernelStats {
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> Self {
        iter.fold(KernelStats::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_is_twice_ffma() {
        let s = KernelStats {
            ffma: 100,
            ..Default::default()
        };
        assert_eq!(s.flops(), 200.0);
    }

    #[test]
    fn byte_totals() {
        let s = KernelStats {
            ldg_bytes_a: 10,
            ldg_bytes_b: 20,
            ldg_bytes_d: 5,
            ldg_bytes_colinfo: 1,
            stg_bytes: 8,
            ..Default::default()
        };
        assert_eq!(s.ldg_bytes_total(), 36);
        assert_eq!(s.global_bytes_total(), 44);
    }

    #[test]
    fn arithmetic_intensity_matches_hand_calc() {
        let s = KernelStats {
            ffma: 1000,
            ldg_bytes_a: 100,
            stg_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.arithmetic_intensity(), 2000.0 / 200.0);
        let z = KernelStats::default();
        assert!(z.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn add_and_sum() {
        let a = KernelStats {
            ffma: 1,
            blocks: 1,
            lds_requests: 3,
            ..Default::default()
        };
        let b = KernelStats {
            ffma: 2,
            blocks: 1,
            lds_replays: 4,
            ..Default::default()
        };
        let c: KernelStats = [a, b].into_iter().sum();
        assert_eq!(c.ffma, 3);
        assert_eq!(c.blocks, 2);
        assert_eq!(c.lds_cycles(), 7);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }
}
