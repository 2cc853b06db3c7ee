//! Small helpers shared by every simulated kernel.

use gpu_sim::mem::SECTOR_BYTES;

/// Grid dimensions `(grid_y, grid_x)` for an `m × n` output with
/// `ms × ns` blocks.
pub fn grid_dims(m: usize, n: usize, ms: usize, ns: usize) -> (usize, usize) {
    (m.div_ceil(ms), n.div_ceil(ns))
}

/// 32-byte sectors touched by a contiguous `bytes`-long access.
pub fn sectors_contig(bytes: usize) -> u64 {
    bytes.div_ceil(SECTOR_BYTES) as u64
}

/// Sectors for `count` separate contiguous runs of `run_bytes` each
/// (e.g. `count` tile columns of a k-major matrix).
pub fn sectors_runs(count: usize, run_bytes: usize) -> u64 {
    count as u64 * sectors_contig(run_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dims_round_up() {
        assert_eq!(grid_dims(4096, 4096, 64, 128), (64, 32));
        assert_eq!(grid_dims(100, 100, 64, 128), (2, 1));
        assert_eq!(grid_dims(64, 128, 64, 128), (1, 1));
    }

    #[test]
    fn sector_math() {
        assert_eq!(sectors_contig(1), 1);
        assert_eq!(sectors_contig(32), 1);
        assert_eq!(sectors_contig(33), 2);
        assert_eq!(sectors_runs(4, 256), 32);
    }
}
