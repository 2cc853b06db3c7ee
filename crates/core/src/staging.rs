//! The row-major staging of the compressed operand (`B′`, `D`): the CPU
//! analogue of the paper's `transformLayout` panels.
//!
//! The output columns are cut, in order, into **column blocks** of
//! `nb / L` pruning windows, the unit the kernel walks and splits work by.
//! Each window's values are one dense `w × L` panel of the operand's own
//! window-major storage ([`NmSparseMatrix::panels`]), borrowed through a
//! shared handle rather than copied, so any k-block of a window is one
//! contiguous run the kernel streams at unit stride.
//!
//! Every output column of a window gathers `A` through the same index
//! column of `D`. The staging resolves those offsets once into
//! **absolute** `u32` gather indices (`u / N · M + D[u][j]`, one per
//! compressed row per window), so the online kernel never reconstructs
//! `base + D[u][j]` per call; that costs `4×` the index bytes of the
//! operand's `u8` `D`. Everything here depends only on the weights: it is
//! offline work in the paper's accounting, built once per preparation.

use crate::error::{NmError, Result};
use crate::pattern::NmConfig;
use crate::sparse::{window_span, NmSparseMatrix, PanelBuf};
use std::ops::Range;
use std::sync::Arc;

/// The layout a preparation stages `B′` in. The CPU kernel stages one,
/// the paper's row-major column blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StorageFormat {
    /// `B′` in column blocks of whole windows, with absolute `u32` gather
    /// indices ([`StagedMatrix`]).
    #[default]
    RowMajor,
}

impl StorageFormat {
    /// Stable identifier, `rowmajor`: what BENCH artifacts record.
    pub fn tag(&self) -> String {
        "rowmajor".to_string()
    }
}

/// The staged operand: its column blocks, the absolute gather table, and
/// a shared handle to the operand's window-major value panels.
///
/// A staging owns its gather table; the values belong to the
/// [`NmSparseMatrix`] and every staging of it borrows the same buffer.
#[derive(Debug)]
pub struct StagedMatrix {
    cfg: NmConfig,
    /// Compressed row count of the source operand.
    w: usize,
    /// Dense column count of the source operand.
    n: usize,
    /// Window count along the output dimension.
    q: usize,
    /// Windows per column block.
    block_windows: usize,
    /// The operand's window-major value panels, shared: window `j` holds
    /// `w` rows of its span's width from float `j · L · w`.
    panels: Arc<PanelBuf>,
    /// Per-window absolute gather indices, one `w`-long `u32` run each.
    gather: Vec<u32>,
}

impl StagedMatrix {
    /// Stage `sb` in column blocks of `block_windows` windows each. The
    /// value panels are `sb`'s own, shared, never copied.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when `block_windows` is zero.
    pub fn build(sb: &NmSparseMatrix, block_windows: usize) -> Result<Self> {
        if block_windows == 0 {
            return Err(NmError::InvalidBlocking {
                reason: "a column block needs at least one window".into(),
            });
        }
        let cfg = sb.cfg();
        let (w, q) = (sb.w(), sb.q());
        let d = sb.indices();
        let gather = (0..q)
            .flat_map(|j| (0..w).map(move |u| (u / cfg.n * cfg.m + d.get(u, j) as usize) as u32))
            .collect();
        Ok(Self {
            cfg,
            w,
            n: sb.cols(),
            q,
            block_windows,
            panels: Arc::clone(sb.panel_buf()),
            gather,
        })
    }

    /// Compressed row count of the source operand.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Dense column count of the source operand.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Window count along the output dimension.
    #[inline]
    pub fn windows(&self) -> usize {
        self.q
    }

    /// Number of column blocks (`⌈q / (nb/L)⌉`).
    #[inline]
    pub fn blocks(&self) -> usize {
        self.q.div_ceil(self.block_windows)
    }

    /// The windows of column block `b`; the final block of a ragged window
    /// count is shorter.
    #[inline]
    pub fn block(&self, b: usize) -> Range<usize> {
        let lo = b * self.block_windows;
        lo..(lo + self.block_windows).min(self.q)
    }

    /// First dense output column and width of window `j`: the contiguous
    /// write-back target (the final window of a ragged `n` is narrower).
    #[inline]
    pub fn span(&self, j: usize) -> (usize, usize) {
        window_span(self.cfg, self.n, j)
    }

    /// Values of window `j` over compressed rows `u_lo..u_hi`: one
    /// contiguous row-major run of `(u_hi - u_lo) × width` floats, `width`
    /// the window's span width.
    #[inline]
    pub fn window_values(&self, j: usize, u_lo: usize, u_hi: usize) -> &[f32] {
        let (col, width) = self.span(j);
        let at = col * self.w;
        &self.panels.as_slice()[at + u_lo * width..at + u_hi * width]
    }

    /// The whole gather table, window-major: window `j` gathers through
    /// `gather()[j * w..(j + 1) * w]`.
    pub fn gather(&self) -> &[u32] {
        &self.gather
    }

    /// Absolute gather indices of window `j`, restricted to compressed
    /// rows `u_lo..u_hi`.
    #[inline]
    pub fn gather_span(&self, j: usize, u_lo: usize, u_hi: usize) -> &[u32] {
        let at = j * self.w;
        &self.gather[at + u_lo..at + u_hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::prune::PrunePolicy;

    fn sparse(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
        let b = MatrixF32::random(k, n, seed);
        NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).unwrap()
    }

    #[test]
    fn windows_tile_the_output_columns_and_restore_the_values() {
        // q = 15 windows, the last one 2 columns wide, in blocks of 4: the
        // final block holds 3 windows.
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        let sb = sparse(32, 58, cfg, 9);
        let sm = StagedMatrix::build(&sb, 4).unwrap();
        assert_eq!((sm.windows(), sm.blocks()), (15, 4));
        assert_eq!(sm.block(3), 12..15);
        // The blocks visit every window once, in order, and the windows'
        // spans partition the output columns.
        let order: Vec<usize> = (0..sm.blocks()).flat_map(|b| sm.block(b)).collect();
        assert_eq!(order, (0..15).collect::<Vec<_>>());
        let mut next = 0;
        for j in order {
            let (col, width) = sm.span(j);
            assert_eq!(col, next, "window {j} leaves a gap or overlaps");
            next = col + width;
        }
        assert_eq!(next, sm.cols());
        // Reassembling rows from the window panels through the spans
        // restores the operand's values exactly.
        let values = sb.values_row_major();
        for u in 0..sm.w() {
            let mut restored = vec![0f32; sm.cols()];
            for j in 0..sm.windows() {
                let (col, width) = sm.span(j);
                restored[col..col + width].copy_from_slice(sm.window_values(j, u, u + 1));
            }
            assert_eq!(restored, values.row(u), "row {u} must restore bit-for-bit");
        }
        // A block wider than the matrix is one block.
        assert_eq!(StagedMatrix::build(&sb, 64).unwrap().blocks(), 1);
        assert!(matches!(
            StagedMatrix::build(&sb, 0),
            Err(NmError::InvalidBlocking { .. })
        ));
    }

    #[test]
    fn gather_indices_are_absolute_and_match_d() {
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = sparse(40, 32, cfg, 11); // k=40 pads to 40 (M=8): w=10
        let sm = StagedMatrix::build(&sb, 1).unwrap();
        let d = sb.indices();
        assert_eq!(sm.gather().len(), sm.w() * sm.windows());
        for j in 0..sm.windows() {
            let idx = sm.gather_span(j, 0, sm.w());
            for (u, &got) in idx.iter().enumerate() {
                let want = u / cfg.n * cfg.m + d.get(u, j) as usize;
                assert_eq!(got as usize, want);
            }
            // Partial ranges view the same stream.
            assert_eq!(sm.gather_span(j, 2, 5), &idx[2..5]);
        }
    }

    #[test]
    fn a_staging_borrows_the_weights_panels() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(64, 64, cfg, 15);
        let sm = StagedMatrix::build(&sb, 2).unwrap();
        // The values are the operand's panels, not a copy.
        assert!(Arc::ptr_eq(&sm.panels, sb.panel_buf()));
        let panels = sb.panels().as_ptr_range();
        let v = sm.window_values(3, 0, sm.w()).as_ptr_range();
        assert!(panels.start <= v.start && v.end <= panels.end);
        assert_eq!(StorageFormat::default().tag(), "rowmajor");
    }
}
