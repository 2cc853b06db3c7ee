//! The compressed N:M vector-wise sparse matrix (`B′` + `D`).
//!
//! Compression follows paper Fig. 1: for every pruning window of `M` rows ×
//! `L` columns of `B[k][n]`, the `N` selected row-vectors are stacked into
//! the values matrix `B′[w][n]` (`w = k·N/M`); the index matrix `D[w][q]`
//! (`q = ⌈n/L⌉`) records each vector's offset within its window.
//!
//! `B′` is stored window-major ([`NmSparseMatrix::panels`]): window `j`'s
//! `w × width` panel starts at float `j·L·w`, so each window's columns are
//! one contiguous run. That is the layout the CPU kernel streams, and every
//! staging of the matrix ([`crate::staging::StagedMatrix`]) borrows it
//! through a shared handle instead of copying it.

use crate::error::{NmError, Result};
use crate::index::{IndexLayout, IndexMatrix};
use crate::matrix::MatrixF32;
use crate::pattern::NmConfig;
use crate::prune::{select, PrunePolicy};
use crate::staging::StorageFormat;
use std::sync::Arc;

/// Bytes a panel buffer's first float is aligned to: one cache line, and
/// one 16-float AVX-512 vector.
pub(crate) const PANEL_ALIGN: usize = 64;

/// The window-major `B′` floats, starting on a [`PANEL_ALIGN`] boundary: a
/// pad prefix inside an ordinary `Vec` absorbs the allocator's offset.
#[derive(Debug)]
pub(crate) struct PanelBuf {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl PanelBuf {
    /// `len` zeroed floats, the first one aligned.
    fn zeroed(len: usize) -> Self {
        let pad = PANEL_ALIGN / std::mem::size_of::<f32>() - 1;
        let buf = vec![0.0; len + pad];
        // `align_offset` may decline; an unaligned start is still correct.
        let start = Some(buf.as_ptr().align_offset(PANEL_ALIGN))
            .filter(|&s| s <= pad)
            .unwrap_or(0);
        Self { buf, start, len }
    }

    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl PartialEq for PanelBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A dense matrix pruned to N:M vector-wise sparsity and stored compressed.
///
/// Cloning shares the value panels; nothing ever mutates them.
#[derive(Debug, Clone, PartialEq)]
pub struct NmSparseMatrix {
    cfg: NmConfig,
    /// Original (unpadded) row count `k`.
    k: usize,
    /// Original (unpadded) column count `n`.
    n_cols: usize,
    /// Compressed values `B′` (`w × n` floats), window-major.
    values: Arc<PanelBuf>,
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
        Self::from_parts(cfg, k, n, d, |panels, d| {
            let w = d.w();
            for j in 0..d.q() {
                let (lo, width) = window_span(cfg, n, j);
                let panel = &mut panels[lo * w..(lo + width) * w];
                for (u, dst) in panel.chunks_exact_mut(width).enumerate() {
                    let src_row = u / cfg.n * cfg.m + d.get(u, j) as usize;
                    if src_row < k {
                        dst.copy_from_slice(&b.row(src_row)[lo..lo + width]);
                    }
                }
            }
        })
    }

    /// Assemble already-compressed parts without a dense `k × n` detour:
    /// `fill` writes the `w × n` values `B′` into the zeroed window-major
    /// buffer ([`Self::panels`]'s layout), given the checked `D`. The
    /// checks [`Self::compress`] makes come first, so nothing is allocated
    /// for a bad `D`: it must be `w × q` and canonical. A value span whose
    /// offset lands in the padded tail (`base + D[u][j] ≥ k`) is zeroed
    /// after `fill`, exactly as `compress` leaves it. Only the last pruning
    /// window's `N` rows can land there, so only their `N × q` offsets are
    /// visited.
    pub(crate) fn from_parts(
        cfg: NmConfig,
        k: usize,
        n: usize,
        d: IndexMatrix,
        fill: impl FnOnce(&mut [f32], &IndexMatrix),
    ) -> Result<Self> {
        let (w, q) = check_indices(cfg, k, n, &d)?;
        let mut values = PanelBuf::zeroed(w * n);
        let panels = values.as_mut_slice();
        fill(panels, &d);
        // An earlier window's rows all lie below the next window's base
        // row, which is `< k`.
        for u in w.saturating_sub(cfg.n)..w {
            for j in 0..q {
                if u / cfg.n * cfg.m + d.get(u, j) as usize >= k {
                    let (lo, width) = window_span(cfg, n, j);
                    let at = lo * w + u * width;
                    panels[at..at + width].fill(0.0);
                }
            }
        }
        Ok(Self {
            cfg,
            k,
            n_cols: n,
            values: Arc::new(values),
            indices: d,
        })
    }

    /// Expand back to a dense `k × n` matrix (pruned entries are zero).
    pub fn decompress(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.k, self.n_cols);
        self.for_each_kept(|u, j, row, lo, width| {
            out.row_mut(row)[lo..lo + width].copy_from_slice(self.panel_row(j, u));
        });
        out
    }

    /// 0/1 mask of surviving positions, shape `k × n`.
    pub fn dense_mask(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.k, self.n_cols);
        self.for_each_kept(|_, _, row, lo, width| out.row_mut(row)[lo..lo + width].fill(1.0));
        out
    }

    /// Visit every kept vector that lies inside the dense `k` rows:
    /// `f(u, j, dense row, first column, width)`.
    fn for_each_kept(&self, mut f: impl FnMut(usize, usize, usize, usize, usize)) {
        for u in 0..self.w() {
            let base = u / self.cfg.n * self.cfg.m;
            for j in 0..self.q() {
                let row = base + self.indices.get(u, j) as usize;
                if row < self.k {
                    let (lo, width) = window_span(self.cfg, self.n_cols, j);
                    f(u, j, row, lo, width);
                }
            }
        }
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
        self.indices.w()
    }

    /// Window-column count `q = ⌈n/L⌉`.
    #[inline]
    pub fn q(&self) -> usize {
        self.indices.q()
    }

    /// The compressed values `B′`, window-major: window `j`'s `w × width`
    /// panel (row-major, `width = min(L, n − j·L)`) starts at float
    /// `j·L·w`. The buffer starts on a 64-byte boundary, so at `L = 32`
    /// every panel and every panel row does too.
    #[inline]
    pub fn panels(&self) -> &[f32] {
        self.values.as_slice()
    }

    /// Window `j`'s `w × width` panel of [`Self::panels`].
    #[inline]
    pub(crate) fn panel(&self, j: usize) -> &[f32] {
        let (lo, width) = window_span(self.cfg, self.n_cols, j);
        &self.panels()[lo * self.w()..(lo + width) * self.w()]
    }

    /// Compressed row `u` of window `j`: `B′[u][j·L..j·L + width]`.
    #[inline]
    pub(crate) fn panel_row(&self, j: usize, u: usize) -> &[f32] {
        let width = window_span(self.cfg, self.n_cols, j).1;
        &self.panel(j)[u * width..(u + 1) * width]
    }

    /// A row-major `w × n` **copy** of `B′` — for cold callers and checks;
    /// the hot paths read [`Self::panels`].
    pub fn values_row_major(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.w(), self.n_cols);
        for u in 0..self.w() {
            for j in 0..self.q() {
                let (lo, width) = window_span(self.cfg, self.n_cols, j);
                out.row_mut(u)[lo..lo + width].copy_from_slice(self.panel_row(j, u));
            }
        }
        out
    }

    /// The shared panel buffer a staging borrows.
    pub(crate) fn panel_buf(&self) -> &Arc<PanelBuf> {
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
        std::mem::size_of_val(self.panels()) + self.indices.storage_bytes(self.cfg, layout)
    }

    /// Dense footprint in bytes of the original matrix.
    pub fn dense_bytes(&self) -> usize {
        self.k * self.n_cols * std::mem::size_of::<f32>()
    }

    /// `dense_bytes / storage_bytes` — how much smaller the compressed form is.
    pub fn compression_ratio(&self, layout: IndexLayout) -> f64 {
        self.dense_bytes() as f64 / self.storage_bytes(layout) as f64
    }

    /// Compressed footprint in bytes in the layout `format` stages:
    /// [`NmSparseMatrix::storage_bytes`] with `layout`, the one format
    /// being the row-major one.
    pub fn storage_bytes_as(&self, format: StorageFormat, layout: IndexLayout) -> usize {
        match format {
            StorageFormat::RowMajor => self.storage_bytes(layout),
        }
    }
}

/// First column and width of window `j` of an `n`-column matrix.
#[inline]
pub(crate) fn window_span(cfg: NmConfig, n: usize, j: usize) -> (usize, usize) {
    let lo = j * cfg.l;
    (lo, cfg.l.min(n - lo))
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
        assert_eq!(sb.panels().len(), 8 * 40);
        assert_eq!(sb.values_row_major().shape(), (8, 40));
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
            let fill = |dst: &mut [f32], _: &IndexMatrix| dst.copy_from_slice(sb.panels());
            NmSparseMatrix::from_parts(c, k, 8, sb.indices().clone(), fill)
        };
        assert_eq!(parts(16).unwrap(), sb);
        // An index matrix for another k, and a non-canonical one.
        assert!(matches!(parts(20), Err(NmError::DimensionMismatch { .. })));
        let d = IndexMatrix::from_vec(2, 1, vec![3, 1]);
        assert!(matches!(
            NmSparseMatrix::from_parts(c, 4, 4, d, |_, _| unreachable!("D is checked first")),
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
    }

    #[test]
    fn panels_are_window_major_and_cache_line_aligned() {
        // Ragged k (pads 50 to 56) and ragged n (the last window is 6 wide).
        let c = cfg(2, 8, 32);
        let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(50, 70, 17), c).unwrap();
        let loaded = crate::serialize::from_bytes(&crate::serialize::to_bytes(&sb)).unwrap();
        let rows = sb.values_row_major();
        let (w, q) = (sb.w(), sb.q());
        assert_eq!((w, q), (14, 3));
        for m in [&sb, &loaded] {
            assert_eq!(m.panels().as_ptr() as usize % PANEL_ALIGN, 0);
            for j in 0..q {
                let (lo, width) = window_span(c, 70, j);
                let panel = m.panel(j);
                assert_eq!(panel.as_ptr(), m.panels()[j * c.l * w..].as_ptr());
                assert_eq!(panel.as_ptr() as usize % PANEL_ALIGN, 0, "panel {j}");
                for u in 0..w {
                    let row = m.panel_row(j, u);
                    assert_eq!(row, &rows.row(u)[lo..lo + width], "({u}, {j})");
                    if width == c.l {
                        assert_eq!(row.as_ptr() as usize % PANEL_ALIGN, 0, "({u}, {j})");
                    }
                }
            }
        }
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
