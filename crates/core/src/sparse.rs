//! The compressed N:M vector-wise sparse matrix (`B′` + `D`).
//!
//! Compression follows paper Fig. 1: for every pruning window of `M` rows ×
//! `L` columns of `B[k][n]`, the `N` selected row-vectors are stacked into
//! the values matrix `B′[w][n]` (`w = k·N/M`); the index matrix `D[w][q]`
//! (`q = ⌈n/L⌉`) records each vector's offset within its window.

use crate::error::{NmError, Result};
use crate::index::{IndexLayout, IndexMatrix};
use crate::matrix::MatrixF32;
use crate::pattern::NmConfig;
use crate::prune::{select, PrunePolicy};
use crate::sliced::StorageFormat;
use serde::{Deserialize, Serialize};

/// A dense matrix pruned to N:M vector-wise sparsity and stored compressed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NmSparseMatrix {
    cfg: NmConfig,
    /// Original (unpadded) row count `k`.
    k: usize,
    /// Original (unpadded) column count `n`.
    n_cols: usize,
    /// Compressed values `B′`, shape `w × n`.
    values: MatrixF32,
    /// Index matrix `D`, shape `w × q`.
    indices: IndexMatrix,
}

impl NmSparseMatrix {
    /// Prune `b` with the magnitude policy and compress.
    pub fn prune_magnitude(b: &MatrixF32, cfg: NmConfig) -> Result<Self> {
        Self::prune(b, cfg, PrunePolicy::Magnitude)
    }

    /// Prune `b` with an arbitrary policy and compress.
    pub fn prune(b: &MatrixF32, cfg: NmConfig, policy: PrunePolicy) -> Result<Self> {
        let d = select(b, cfg, policy);
        Self::compress(b, cfg, d)
    }

    /// Compress `b` using a pre-computed canonical selection `d`.
    ///
    /// `d` must have shape `(⌈k/M⌉·N) × ⌈n/L⌉` and pass
    /// [`IndexMatrix::validate`].
    pub fn compress(b: &MatrixF32, cfg: NmConfig, d: IndexMatrix) -> Result<Self> {
        let (k, n) = b.shape();
        let (w, q) = check_indices(cfg, k, n, &d)?;

        let mut values = MatrixF32::zeros(w, n);
        for u in 0..w {
            let window = u / cfg.n;
            let base = window * cfg.m;
            for j in 0..q {
                let src_row = base + d.get(u, j) as usize;
                if src_row >= k {
                    continue; // padded row — stays zero
                }
                let lo = j * cfg.l;
                let hi = ((j + 1) * cfg.l).min(n);
                let dst = &mut values.row_mut(u)[lo..hi];
                dst.copy_from_slice(&b.row(src_row)[lo..hi]);
            }
        }
        Ok(Self {
            cfg,
            k,
            n_cols: n,
            values,
            indices: d,
        })
    }

    /// Assemble already-compressed parts, the `w × n` values `B′` (row
    /// major) and `D`, without a dense `k × n` detour, with the checks
    /// [`Self::compress`] makes: `D` must be `w × q` and canonical. A value
    /// span whose offset lands in the padded tail of the last pruning window
    /// (`base + D[u][j] ≥ k`) is zeroed, exactly as `compress` leaves it.
    ///
    /// # Panics
    /// Panics if `values.len() != w · n`.
    pub(crate) fn from_parts(
        cfg: NmConfig,
        k: usize,
        n: usize,
        values: Vec<f32>,
        d: IndexMatrix,
    ) -> Result<Self> {
        let (w, q) = check_indices(cfg, k, n, &d)?;
        let mut values = MatrixF32::from_vec(w, n, values);
        for u in 0..w {
            let base = u / cfg.n * cfg.m;
            for j in 0..q {
                if base + d.get(u, j) as usize >= k {
                    let lo = j * cfg.l;
                    let hi = ((j + 1) * cfg.l).min(n);
                    values.row_mut(u)[lo..hi].fill(0.0);
                }
            }
        }
        Ok(Self {
            cfg,
            k,
            n_cols: n,
            values,
            indices: d,
        })
    }

    /// Expand back to a dense `k × n` matrix (pruned entries are zero).
    pub fn decompress(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.k, self.n_cols);
        for u in 0..self.w() {
            let window = u / self.cfg.n;
            let base = window * self.cfg.m;
            for j in 0..self.q() {
                let dst_row = base + self.indices.get(u, j) as usize;
                if dst_row >= self.k {
                    continue;
                }
                let lo = j * self.cfg.l;
                let hi = ((j + 1) * self.cfg.l).min(self.n_cols);
                out.row_mut(dst_row)[lo..hi].copy_from_slice(&self.values.row(u)[lo..hi]);
            }
        }
        out
    }

    /// 0/1 mask of surviving positions, shape `k × n`.
    pub fn dense_mask(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.k, self.n_cols);
        for u in 0..self.w() {
            let window = u / self.cfg.n;
            let base = window * self.cfg.m;
            for j in 0..self.q() {
                let dst_row = base + self.indices.get(u, j) as usize;
                if dst_row >= self.k {
                    continue;
                }
                let lo = j * self.cfg.l;
                let hi = ((j + 1) * self.cfg.l).min(self.n_cols);
                for v in &mut out.row_mut(dst_row)[lo..hi] {
                    *v = 1.0;
                }
            }
        }
        out
    }

    /// The sparsity configuration.
    #[inline]
    pub fn cfg(&self) -> NmConfig {
        self.cfg
    }

    /// Original row count `k` of the dense matrix.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count `n` (shared by dense and compressed forms).
    #[inline]
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Compressed row count `w = ⌈k/M⌉·N`.
    #[inline]
    pub fn w(&self) -> usize {
        self.values.rows()
    }

    /// Window-column count `q = ⌈n/L⌉`.
    #[inline]
    pub fn q(&self) -> usize {
        self.indices.q()
    }

    /// The compressed values matrix `B′` (`w × n`).
    #[inline]
    pub fn values(&self) -> &MatrixF32 {
        &self.values
    }

    /// The index matrix `D` (`w × q`).
    #[inline]
    pub fn indices(&self) -> &IndexMatrix {
        &self.indices
    }

    /// Re-run the structural validation (useful after deserialization).
    pub fn validate(&self) -> Result<()> {
        self.indices.validate(self.cfg)
    }

    /// Compressed footprint in bytes: values + indices under `layout`.
    pub fn storage_bytes(&self, layout: IndexLayout) -> usize {
        std::mem::size_of_val(self.values.as_slice()) + self.indices.storage_bytes(self.cfg, layout)
    }

    /// Dense footprint in bytes of the original matrix.
    pub fn dense_bytes(&self) -> usize {
        self.k * self.n_cols * std::mem::size_of::<f32>()
    }

    /// `dense_bytes / storage_bytes` — how much smaller the compressed form is.
    pub fn compression_ratio(&self, layout: IndexLayout) -> f64 {
        self.dense_bytes() as f64 / self.storage_bytes(layout) as f64
    }

    /// Compressed footprint in bytes under an arbitrary storage format.
    ///
    /// [`StorageFormat::RowMajor`] defers to [`NmSparseMatrix::storage_bytes`]
    /// with `layout`; a sliced format re-lays the same floats out in slice
    /// panels but replaces the `u8`/bit-packed `D` with absolute `u32`
    /// gather indices plus a window permutation table, so `layout` does not
    /// apply to it — the sliced footprint is always the `u32` one.
    pub fn storage_bytes_as(&self, format: StorageFormat, layout: IndexLayout) -> usize {
        match format {
            StorageFormat::RowMajor => self.storage_bytes(layout),
            StorageFormat::Sliced(s) => s.storage_bytes_for(self.w(), self.cols(), self.q()),
        }
    }

    /// `dense_bytes / storage_bytes_as` under an arbitrary storage format.
    pub fn compression_ratio_as(&self, format: StorageFormat, layout: IndexLayout) -> f64 {
        self.dense_bytes() as f64 / self.storage_bytes_as(format, layout) as f64
    }
}

/// Check that `d` is the `w × q` canonical index matrix of a `k × n` matrix
/// under `cfg`, and return `(w, q)`.
fn check_indices(cfg: NmConfig, k: usize, n: usize, d: &IndexMatrix) -> Result<(usize, usize)> {
    let w = cfg.compressed_rows(k);
    let q = cfg.window_cols(n);
    if d.w() != w || d.q() != q {
        return Err(NmError::DimensionMismatch {
            expected: format!("index matrix {w}x{q}"),
            found: format!("{}x{}", d.w(), d.q()),
        });
    }
    d.validate(cfg)?;
    Ok((w, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, m: usize, l: usize) -> NmConfig {
        NmConfig::new(n, m, l).unwrap()
    }

    #[test]
    fn compress_decompress_preserves_kept_values() {
        let b = MatrixF32::random(32, 24, 1);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(2, 4, 4)).unwrap();
        let dense = sb.decompress();
        // Every nonzero of the decompressed matrix matches B exactly.
        for i in 0..32 {
            for j in 0..24 {
                let v = dense.get(i, j);
                if v != 0.0 {
                    assert_eq!(v, b.get(i, j));
                }
            }
        }
        // Exactly N/M of the entries survive.
        assert_eq!(dense.count_zeros(), 32 * 24 / 2);
    }

    #[test]
    fn mask_matches_decompressed_support() {
        let b = MatrixF32::random(16, 16, 2);
        let sb = NmSparseMatrix::prune(&b, cfg(4, 16, 8), PrunePolicy::Random { seed: 3 }).unwrap();
        let mask = sb.dense_mask();
        let dense = sb.decompress();
        for i in 0..16 {
            for j in 0..16 {
                if mask.get(i, j) == 1.0 {
                    assert_eq!(dense.get(i, j), b.get(i, j));
                } else {
                    assert_eq!(dense.get(i, j), 0.0);
                }
            }
        }
        let kept: usize = mask.as_slice().iter().map(|v| *v as usize).sum();
        assert_eq!(kept, 16 * 16 / 4);
    }

    #[test]
    fn dense_n_equals_m_round_trips_exactly() {
        let b = MatrixF32::random(8, 8, 3);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(4, 4, 4)).unwrap();
        assert_eq!(sb.decompress(), b);
        assert_eq!(sb.w(), 8);
    }

    #[test]
    fn shapes_follow_paper_formulas() {
        let b = MatrixF32::random(64, 40, 4);
        let c = cfg(2, 16, 8);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        assert_eq!(sb.w(), 64 * 2 / 16);
        assert_eq!(sb.q(), 40 / 8);
        assert_eq!(sb.values().shape(), (8, 40));
    }

    #[test]
    fn padding_on_both_axes() {
        // k=10 (pads to 12 with M=4), n=7 (pads to 8 with L=4 -> q=2).
        let b = MatrixF32::random(10, 7, 5);
        let c = cfg(2, 4, 4);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        assert_eq!(sb.w(), 6);
        assert_eq!(sb.q(), 2);
        let dense = sb.decompress();
        assert_eq!(dense.shape(), (10, 7));
        // Kept values still match the original.
        for i in 0..10 {
            for j in 0..7 {
                let v = dense.get(i, j);
                if v != 0.0 {
                    assert_eq!(v, b.get(i, j));
                }
            }
        }
    }

    #[test]
    fn compress_rejects_wrong_index_shape() {
        let b = MatrixF32::random(16, 16, 1);
        let c = cfg(2, 4, 4);
        let d = IndexMatrix::zeros(4, 4); // wrong: w should be 8
        assert!(matches!(
            NmSparseMatrix::compress(&b, c, d),
            Err(NmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_checks_what_compress_checks() {
        let c = cfg(2, 4, 4);
        let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(16, 8, 2), c).unwrap();
        let parts = |k| {
            let values = sb.values().as_slice().to_vec();
            NmSparseMatrix::from_parts(c, k, 8, values, sb.indices().clone())
        };
        assert_eq!(parts(16).unwrap(), sb);
        // An index matrix for another k, and a non-canonical one.
        assert!(matches!(parts(20), Err(NmError::DimensionMismatch { .. })));
        let d = IndexMatrix::from_vec(2, 1, vec![3, 1]);
        assert!(matches!(
            NmSparseMatrix::from_parts(c, 4, 4, vec![0.0; 8], d),
            Err(NmError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn compress_rejects_corrupt_indices() {
        let b = MatrixF32::random(4, 4, 1);
        let c = cfg(2, 4, 4);
        let d = IndexMatrix::from_vec(2, 1, vec![3, 1]); // not increasing
        assert!(matches!(
            NmSparseMatrix::compress(&b, c, d),
            Err(NmError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn storage_accounting() {
        let b = MatrixF32::random(64, 64, 6);
        let c = cfg(2, 16, 4); // 87.5% sparsity, 4-bit indices
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let dense = sb.dense_bytes();
        assert_eq!(dense, 64 * 64 * 4);
        let packed = sb.storage_bytes(IndexLayout::BitPacked);
        // values: 8x64 floats = 2048B; indices: 8x16 entries * 4 bits = 64B.
        assert_eq!(packed, 2048 + 64);
        assert!(sb.compression_ratio(IndexLayout::BitPacked) > 7.0);
        assert!(
            sb.storage_bytes(IndexLayout::RowMajorU8) > packed,
            "u8 layout must cost more than bit-packed"
        );
    }

    #[test]
    fn per_format_storage_accounting() {
        use crate::sliced::{SlicedLayout, StorageFormat};
        let b = MatrixF32::random(64, 64, 6);
        let c = cfg(2, 16, 4); // w=8, q=16
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        // Row-major defers to the layout-specific accounting.
        for layout in [IndexLayout::RowMajorU8, IndexLayout::BitPacked] {
            assert_eq!(
                sb.storage_bytes_as(StorageFormat::RowMajor, layout),
                sb.storage_bytes(layout)
            );
        }
        // Sliced: same floats, u32 gather indices + u32 permutation table,
        // independent of the index layout argument.
        let sliced = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let bytes = sb.storage_bytes_as(sliced, IndexLayout::BitPacked);
        assert_eq!(bytes, 8 * 64 * 4 + 8 * 16 * 4 + 16 * 4);
        assert_eq!(bytes, sb.storage_bytes_as(sliced, IndexLayout::RowMajorU8));
        // The u32 indices cost more than the u8 D — honest accounting.
        assert!(bytes > sb.storage_bytes(IndexLayout::RowMajorU8));
        assert!(sb.compression_ratio_as(sliced, IndexLayout::BitPacked) > 1.0);
        assert!(
            sb.compression_ratio_as(sliced, IndexLayout::BitPacked)
                < sb.compression_ratio(IndexLayout::BitPacked)
        );
    }

    #[test]
    fn values_columns_beyond_last_window_are_zero_padded_window() {
        // n=6, L=4 -> q=2; second window covers cols 4..6 only.
        let b = MatrixF32::random(8, 6, 7);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(2, 4, 4)).unwrap();
        assert_eq!(sb.q(), 2);
        let dense = sb.decompress();
        assert_eq!(dense.shape(), (8, 6));
    }
}
