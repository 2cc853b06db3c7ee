//! Offline pre-processing for the high-sparsity *packing* path
//! (paper §III-C1, Fig. 4, Listing 3).
//!
//! At high sparsity the working set of `As` (the `A` tile in shared memory)
//! is mostly dead weight: within a `ks`-deep k-block only the columns named
//! by some pruning window are ever read. The paper's offline step computes,
//! per (k-block, column-block) pair, **`col_info`** — the sorted union of
//! `A` columns referenced by any of the block's `qs` pruning windows
//! (`queryColInfo`). A `D` entry's packed position (`reorderingIdx`) is its
//! rank in that sorted list; the block layout transform (`transformLayout`)
//! is modeled by [`crate::index::IndexLayout::Blocked`].
//!
//! During online computation the kernel loads only the `col_info` columns of
//! `A` ("packing"), shrinking the `As` footprint from `ms×ks` to
//! `ms×len(col_info)` and raising arithmetic intensity (Eq. 3). The
//! simulator prices that saving through [`ColInfo::mean_packing_ratio`].

use crate::error::{NmError, Result};
use crate::pattern::NmConfig;
use crate::sparse::NmSparseMatrix;
use serde::{Deserialize, Serialize};

/// The per-(k-block, column-block) packed-column table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColInfo {
    /// k-block depth in dense rows (multiple of `M`).
    pub ks: usize,
    /// Column-block width in dense columns (multiple of `L`).
    pub ns: usize,
    /// Compressed rows per k-block: `ws = ks·N/M`.
    pub ws: usize,
    /// Pruning windows per column block: `qs = ns/L`.
    pub qs: usize,
    /// Number of k-blocks (`⌈k/ks⌉` over the padded matrix).
    pub kblocks: usize,
    /// Number of column blocks (`⌈n/ns⌉`).
    pub cblocks: usize,
    /// `cols[bk * cblocks + bj]` — sorted unique k-offsets (within the
    /// block's `0..ks` range) that must be loaded from `A`.
    cols: Vec<Vec<u16>>,
}

impl ColInfo {
    /// Column list for block `(bk, bj)`.
    #[inline]
    pub fn block(&self, bk: usize, bj: usize) -> &[u16] {
        &self.cols[bk * self.cblocks + bj]
    }

    /// Packed length for block `(bk, bj)`.
    #[inline]
    pub fn packed_len(&self, bk: usize, bj: usize) -> usize {
        self.block(bk, bj).len()
    }

    /// Fraction of the `ks` range that must actually be loaded, for one block.
    pub fn packing_ratio(&self, bk: usize, bj: usize) -> f64 {
        self.packed_len(bk, bj) as f64 / self.ks as f64
    }

    /// Mean packing ratio over every block — the global-memory saving on `A`
    /// achieved by the packing path (1.0 = no saving, `N/M` = ideal).
    pub fn mean_packing_ratio(&self) -> f64 {
        if self.cols.is_empty() {
            return 1.0;
        }
        let total: usize = self.cols.iter().map(Vec::len).sum();
        total as f64 / (self.cols.len() * self.ks) as f64
    }

    /// Bytes of auxiliary storage this table adds in GPU memory
    /// (`u16` per entry plus one `u32` length per block) — the "1% to 10%
    /// overhead" the paper reports.
    pub fn storage_bytes(&self) -> usize {
        let entries: usize = self.cols.iter().map(Vec::len).sum();
        entries * std::mem::size_of::<u16>() + self.cols.len() * std::mem::size_of::<u32>()
    }
}

/// Run the offline pre-processing of paper Listing 3 / Fig. 4.
///
/// `ks` must be a positive multiple of `M` and `ns` a positive multiple of
/// `L`; these are the shared-memory blocking parameters the online kernel
/// will use.
pub fn preprocess(sb: &NmSparseMatrix, ks: usize, ns: usize) -> Result<ColInfo> {
    let cfg = sb.cfg();
    validate_blocking(cfg, ks, ns)?;

    let ws = ks * cfg.n / cfg.m;
    let qs = ns / cfg.l;
    let (w, q) = (sb.w(), sb.q());
    let kblocks = w.div_ceil(ws);
    let cblocks = q.div_ceil(qs);
    let d = sb.indices();

    let mut cols: Vec<Vec<u16>> = Vec::with_capacity(kblocks * cblocks);

    for bk in 0..kblocks {
        let u_lo = bk * ws;
        let u_hi = ((bk + 1) * ws).min(w);
        let kbase = bk * ks; // first dense k-row of this block
        for bj in 0..cblocks {
            let j_lo = bj * qs;
            let j_hi = ((bj + 1) * qs).min(q);

            // queryColInfo: union of referenced dense columns, as a bitmap.
            let mut used = vec![false; ks];
            for u in u_lo..u_hi {
                let base = u / cfg.n * cfg.m; // global window base
                for j in j_lo..j_hi {
                    let off = base + d.get(u, j) as usize - kbase;
                    used[off] = true;
                }
            }
            cols.push((0..ks as u16).filter(|&c| used[c as usize]).collect());
        }
    }

    Ok(ColInfo {
        ks,
        ns,
        ws,
        qs,
        kblocks,
        cblocks,
        cols,
    })
}

fn validate_blocking(cfg: NmConfig, ks: usize, ns: usize) -> Result<()> {
    if ks == 0 || !ks.is_multiple_of(cfg.m) {
        return Err(NmError::InvalidBlocking {
            reason: format!("ks={ks} must be a positive multiple of M={}", cfg.m),
        });
    }
    if ns == 0 || !ns.is_multiple_of(cfg.l) {
        return Err(NmError::InvalidBlocking {
            reason: format!("ns={ns} must be a positive multiple of L={}", cfg.l),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::prune::PrunePolicy;

    fn sparse(k: usize, n: usize, cfg: NmConfig, policy: PrunePolicy) -> NmSparseMatrix {
        let b = MatrixF32::random(k, n, 42);
        NmSparseMatrix::prune(&b, cfg, policy).unwrap()
    }

    #[test]
    fn rejects_misaligned_blocking() {
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        let sb = sparse(16, 16, cfg, PrunePolicy::Magnitude);
        assert!(preprocess(&sb, 6, 8).is_err(), "ks not multiple of M");
        assert!(preprocess(&sb, 8, 6).is_err(), "ns not multiple of L");
        assert!(preprocess(&sb, 0, 8).is_err());
        assert!(preprocess(&sb, 8, 0).is_err());
    }

    #[test]
    fn identical_patterns_pack_to_n_over_m() {
        // Strided selection repeats the same offsets in every window, so the
        // union per M-window is exactly N columns -> ratio N/M (paper's
        // best case: "the memory access minimize to N/M").
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(64, 32, cfg, PrunePolicy::Strided);
        let p = preprocess(&sb, 32, 16).unwrap();
        assert!((p.mean_packing_ratio() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn random_patterns_pack_between_bounds() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(128, 64, cfg, PrunePolicy::Random { seed: 9 });
        let ks = 32;
        let ns = 32; // qs = 8 windows per block
        let p = preprocess(&sb, ks, ns).unwrap();
        let qs = ns / cfg.l;
        let lower = cfg.n as f64 / cfg.m as f64;
        let upper = ((qs * cfg.n).min(cfg.m) as f64) / cfg.m as f64;
        let ratio = p.mean_packing_ratio();
        assert!(
            ratio >= lower - 1e-12 && ratio <= upper + 1e-12,
            "ratio {ratio} outside [{lower}, {upper}]"
        );
        // With 8 independent windows choosing 2 of 16 the union is near the
        // upper bound, comfortably above the lower.
        assert!(ratio > lower + 0.1);
    }

    #[test]
    fn packed_positions_point_back_to_the_same_column() {
        // A D entry's packed position is its rank in the block's sorted
        // list; every entry must find its dense column there.
        let cfg = NmConfig::new(4, 16, 8).unwrap();
        let sb = sparse(64, 64, cfg, PrunePolicy::Random { seed: 17 });
        let ks = 32;
        let ci = preprocess(&sb, ks, 32).unwrap();
        let d = sb.indices();
        for u in 0..sb.w() {
            let bk = u / ci.ws;
            let base = u / cfg.n * cfg.m;
            for j in 0..sb.q() {
                let list = ci.block(bk, j / ci.qs);
                let dense_off = (base + d.get(u, j) as usize - bk * ks) as u16;
                let pos = list.binary_search(&dense_off);
                assert!(pos.is_ok(), "u={u}, j={j}: column {dense_off} not packed");
            }
        }
    }

    #[test]
    fn col_lists_are_sorted_unique() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(64, 48, cfg, PrunePolicy::Random { seed: 23 });
        let p = preprocess(&sb, 32, 16).unwrap();
        for bk in 0..p.kblocks {
            for bj in 0..p.cblocks {
                let list = p.block(bk, bj);
                assert!(list.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
                assert!(list.iter().all(|&c| (c as usize) < p.ks));
            }
        }
    }

    #[test]
    fn storage_overhead_is_small_fraction_of_values() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(512, 512, cfg, PrunePolicy::Magnitude);
        let p = preprocess(&sb, 64, 64).unwrap();
        let values_bytes = sb.panels().len() * 4;
        let overhead = p.storage_bytes() as f64 / values_bytes as f64;
        assert!(
            overhead < 0.15,
            "col_info overhead {overhead} should stay in the paper's 1-10% band"
        );
    }

    #[test]
    fn single_window_block_packs_exactly_n_per_window() {
        // qs = 1: the union is just that window's N offsets.
        let cfg = NmConfig::new(4, 16, 8).unwrap();
        let sb = sparse(32, 32, cfg, PrunePolicy::Random { seed: 31 });
        let p = preprocess(&sb, 16, 8).unwrap(); // ks=M, one window per block col
        for bk in 0..p.kblocks {
            for bj in 0..p.cblocks {
                assert_eq!(p.packed_len(bk, bj), cfg.n);
            }
        }
        assert!((p.mean_packing_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn handles_partial_edge_blocks() {
        // w=16, ws=8 fits evenly, but q=6 with qs=4 leaves a ragged block.
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        let sb = sparse(32, 24, cfg, PrunePolicy::Magnitude);
        let p = preprocess(&sb, 8, 16).unwrap();
        assert_eq!(p.cblocks, 2);
        // The ragged block's list is the union of its two windows alone.
        let d = sb.indices();
        for bk in 0..p.kblocks {
            let mut want: Vec<u16> = (bk * p.ws..(bk + 1) * p.ws)
                .flat_map(|u| {
                    let base = u / cfg.n * cfg.m - bk * p.ks;
                    (4..6).map(move |j| (base + d.get(u, j) as usize) as u16)
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(p.block(bk, 1), want.as_slice());
        }
    }
}
