//! SELL-C-σ-style sliced storage for the compressed operand (`B′`, `D`).
//!
//! Kreutzer et al.'s SELL-C-σ stores a sparse matrix as *slices* of `C`
//! consecutive rows, sorted by row population inside windows of `σ` rows,
//! so that SIMD lanes of a slice stream comparable work. NM-SpMM's operand
//! is structured rather than unstructured, so the translation is made
//! along the dimension that is actually independent in the SpMV view
//! `y = x ⊛ (B′, D)`: the **output columns**, grouped in pruning windows
//! of `L` columns. Each window has one index column of `D` (every output
//! column inside it gathers through the same per-row offset), which makes
//! a window the natural SELL "row":
//!
//! * **slice** — `slice_height` (= `C`) consecutive windows after sorting,
//!   the unit the kernel walks and splits work by. Each window's values
//!   are one dense `w × L` panel, row-major — the operand's own
//!   window-major storage ([`NmSparseMatrix::panels`]) — so any k-block of
//!   a window is one contiguous run the kernel streams at unit stride;
//! * **sort window** — windows are reordered inside disjoint groups of
//!   `sort_window` (= `σ`) windows. Classic SELL sorts by row length; an
//!   N:M window always holds exactly `w` entries, so the sort key is the
//!   window's *offset mass* (the sum of its `D` column) — windows whose
//!   kept vectors sit at similar depths inside each pruning window land in
//!   the same slice and gather from correlated positions of `x`;
//! * **permutation** — carried as a [`ChannelPermutation`]
//!   (`perm[new] = old` over window indices, the same convention
//!   `permute.rs` uses for `k`-rows). Because whole windows move, the
//!   permutation is an index over the operand's panels, never a copy of
//!   them; the inverse permutation on write-back is a contiguous copy per
//!   window, and the summation order over compressed rows is untouched —
//!   sliced results can be *bit-identical* to the row-major path.
//!
//! The built product copies no values: it holds a shared handle to the
//! operand's panels, and materializes **absolute** gather indices
//! (`u32`, one per compressed row per window) so the online kernel never
//! reconstructs `base + D[u][j]` per call; that is paid for with `4×` the
//! index bytes of the operand's `u8` `D` ([`SlicedMatrix::storage_bytes`]
//! reports the honest total).
//!
//! The CPU kernel stages *every* layout this way. The paper's row-major
//! `transformLayout` staging is the degenerate point `σ = 1` (identity
//! permutation), `C = nb/L` (one slice per `nb`-wide column block, each
//! of its windows one contiguous panel), plus the gather table.
//!
//! Measured autotuning searches row-major stagings only; the other
//! layouts are reached through an explicit storage pin. SELL-C-σ's sort
//! exists to even out row lengths across a slice's SIMD lanes, and every
//! N:M window holds exactly `w` entries, so here the σ-sort can only
//! correlate gather positions. In practice the layouts stepped a decode
//! stack at row-major's speed, and a single slice's advantage (no column
//! split) is measured as a whole-width row-major column block instead.

use crate::error::{NmError, Result};
use crate::permute::ChannelPermutation;
use crate::sparse::{window_span, NmSparseMatrix, PanelBuf};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The SELL-C-σ parameters: slice height `C` and sort-window `σ`, both in
/// pruning-window units along the output dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlicedLayout {
    /// Windows per slice (`C ≥ 1`).
    pub slice_height: usize,
    /// Windows per sort group (`σ ≥ 1`; `σ = 1` disables sorting).
    pub sort_window: usize,
}

impl SlicedLayout {
    /// The default decode-band layout (`C = 8`, `σ = 32`): slices wide
    /// enough to amortize the panel switch, sorting across four slices.
    pub const DEFAULT: SlicedLayout = SlicedLayout {
        slice_height: 8,
        sort_window: 32,
    };

    /// The largest slice height or sort window accepted, in windows.
    /// Either parameter at or above a matrix's window count `q` acts as
    /// `q` (one slice, one sort group), so the cap loses no layout of any
    /// matrix up to `65,536 · L` columns wide.
    pub const MAX_WINDOWS: usize = 1 << 16;

    /// Validated constructor: both parameters must lie in
    /// `1..=`[`Self::MAX_WINDOWS`].
    pub fn new(slice_height: usize, sort_window: usize) -> Result<Self> {
        if slice_height == 0 || sort_window == 0 {
            return Err(NmError::InvalidConfig {
                reason: format!(
                    "sliced layout needs positive slice height and sort window \
                     (got C={slice_height}, sigma={sort_window})"
                ),
            });
        }
        for (name, v) in [("C", slice_height), ("sigma", sort_window)] {
            if v > Self::MAX_WINDOWS {
                return Err(NmError::InvalidConfig {
                    reason: format!(
                        "sliced layout {name}={v} exceeds {} windows",
                        Self::MAX_WINDOWS
                    ),
                });
            }
        }
        Ok(Self {
            slice_height,
            sort_window,
        })
    }

    /// Build the sliced form of `sb` under these parameters.
    pub fn build(&self, sb: &NmSparseMatrix) -> Result<SlicedMatrix> {
        SlicedMatrix::build(sb, *self)
    }

    /// Bytes the sliced form of a `w × n` operand with `q` windows takes:
    /// the value panels, the absolute `u32` gather indices, and the `u32`
    /// window permutation. The panels are the operand's own storage, which
    /// every staging shares; a staging owns only the indices and the
    /// permutation.
    pub fn storage_bytes_for(&self, w: usize, n: usize, q: usize) -> usize {
        w * n * std::mem::size_of::<f32>()
            + w * q * std::mem::size_of::<u32>()
            + q * std::mem::size_of::<u32>()
    }
}

impl Default for SlicedLayout {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for SlicedLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C={} sigma={}", self.slice_height, self.sort_window)
    }
}

/// Which storage layout a preparation stages the compressed operand in —
/// a first-class, planned dimension: the cache keys plans per format and
/// the measured autotuner picks the winner per host and shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageFormat {
    /// The paper's layout: `B′` in block-contiguous `transformLayout`
    /// panels, one per `nb`-wide column block and k-block. The CPU kernel
    /// stages it as the `C = nb/L, σ = 1` [`SlicedLayout`] (unsorted
    /// slices one column block wide, with absolute `u32` gather indices);
    /// the generated shaders pack `A` on it where the paper does.
    #[default]
    RowMajor,
    /// SELL-C-σ sliced panels with absolute gather indices.
    Sliced(SlicedLayout),
}

impl StorageFormat {
    /// Stable identifier: `rowmajor` or `sliced:<C>:<σ>` — what plan-cache
    /// documents and BENCH artifacts record.
    pub fn tag(&self) -> String {
        match self {
            StorageFormat::RowMajor => "rowmajor".to_string(),
            StorageFormat::Sliced(s) => format!("sliced:{}:{}", s.slice_height, s.sort_window),
        }
    }

    /// Inverse of [`StorageFormat::tag`]: exactly `rowmajor` or
    /// `sliced:<C>:<σ>` — the plan-cache parser's reader.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] for any other spelling, and for a `C` or
    /// `σ` that [`SlicedLayout::new`] rejects.
    pub fn from_name(name: &str) -> Result<Self> {
        if name == "rowmajor" {
            return Ok(StorageFormat::RowMajor);
        }
        if let Some(rest) = name.strip_prefix("sliced:") {
            let mut parts = rest.split(':');
            let c = parts.next().and_then(|v| v.parse::<usize>().ok());
            let sigma = parts.next().and_then(|v| v.parse::<usize>().ok());
            if let (Some(c), Some(sigma), None) = (c, sigma, parts.next()) {
                return Ok(StorageFormat::Sliced(SlicedLayout::new(c, sigma)?));
            }
        }
        Err(NmError::InvalidConfig {
            reason: format!(
                "unknown storage format `{name}` (expected rowmajor or sliced:<C>:<sigma>)"
            ),
        })
    }

    /// Whether this is a sliced layout.
    pub fn is_sliced(&self) -> bool {
        matches!(self, StorageFormat::Sliced(_))
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// The built sliced form: the window permutation, absolute gather indices
/// in permuted order, and a shared handle to the operand's window-major
/// value panels, which the permutation indexes without copying.
///
/// A staging owns its gather table, permutation and spans; the values
/// belong to the [`NmSparseMatrix`] and every staging of it borrows the
/// same buffer. Everything here depends only on the weights, never on
/// activations — it is offline work in the paper's accounting, built once
/// per preparation.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedMatrix {
    layout: SlicedLayout,
    /// Compressed row count of the source operand.
    w: usize,
    /// Dense column count of the source operand.
    n: usize,
    /// Window count along the output dimension.
    q: usize,
    /// Window permutation, `perm[new] = old` — reused from `permute.rs`.
    perm: ChannelPermutation,
    /// Per permuted window: first dense output column and width (the
    /// write-back map; the final window of a ragged `n` is narrower).
    spans: Vec<(u32, u32)>,
    /// The operand's window-major value panels, shared: the window whose
    /// span starts at column `col` holds `w` rows of its span's width from
    /// float `col · w`.
    panels: Arc<PanelBuf>,
    /// Per-window absolute gather indices in permuted order, one `w`-long
    /// `u32` run each — the index stream the kernel reads instead of
    /// recomputing `base + D[u][j]`.
    gather: Vec<u32>,
}

impl SlicedMatrix {
    /// Build the sliced form of `sb`: sort windows by offset mass inside
    /// each `σ` group (stable, so `σ = 1` and uniform patterns keep the
    /// identity), then materialize absolute indices. The value panels are
    /// `sb`'s own, shared, never copied.
    pub fn build(sb: &NmSparseMatrix, layout: SlicedLayout) -> Result<Self> {
        // Constructed through the validated path even when callers built
        // the struct literally.
        let layout = SlicedLayout::new(layout.slice_height, layout.sort_window)?;
        let cfg = sb.cfg();
        let (w, n, q) = (sb.w(), sb.cols(), sb.q());
        let d = sb.indices();

        // Sort key per window: offset mass of its index column.
        let mass: Vec<u64> = (0..q)
            .map(|j| (0..w).map(|u| d.get(u, j) as u64).sum())
            .collect();
        let mut perm: Vec<usize> = (0..q).collect();
        for group in perm.chunks_mut(layout.sort_window) {
            group.sort_by_key(|&j| mass[j]); // stable: ties keep input order
        }
        let swaps = perm.iter().enumerate().filter(|(i, &j)| *i != j).count();
        let total_mass = mass.iter().sum::<u64>() as f64;
        let perm = ChannelPermutation {
            perm,
            retained_before: total_mass,
            retained_after: total_mass, // a reorder never changes the mass
            swaps,
        };

        let spans: Vec<(u32, u32)> = perm
            .perm
            .iter()
            .map(|&jw| {
                let (lo, width) = window_span(cfg, n, jw);
                (lo as u32, width as u32)
            })
            .collect();

        // Absolute gather positions, one per compressed row per window.
        let gather = perm
            .perm
            .iter()
            .flat_map(|&jw| (0..w).map(move |u| (u / cfg.n * cfg.m + d.get(u, jw) as usize) as u32))
            .collect();

        Ok(Self {
            layout,
            w,
            n,
            q,
            perm,
            spans,
            panels: Arc::clone(sb.panel_buf()),
            gather,
        })
    }

    /// The parameters this matrix was built with.
    #[inline]
    pub fn layout(&self) -> SlicedLayout {
        self.layout
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

    /// Number of slices (`⌈q / C⌉`).
    #[inline]
    pub fn slices(&self) -> usize {
        self.q.div_ceil(self.layout.slice_height)
    }

    /// The window permutation (`perm[new] = old`, over window indices).
    #[inline]
    pub fn perm(&self) -> &ChannelPermutation {
        &self.perm
    }

    /// Inverse permutation: `inv[old_window] = new_position`.
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.q];
        for (new, &old) in self.perm.perm.iter().enumerate() {
            inv[old] = new;
        }
        inv
    }

    /// Permuted window positions covered by slice `s`.
    #[inline]
    pub fn slice_windows(&self, s: usize) -> std::ops::Range<usize> {
        let lo = s * self.layout.slice_height;
        lo..(lo + self.layout.slice_height).min(self.q)
    }

    /// First dense output column and width of the window at permuted
    /// position `pos` — the contiguous write-back target.
    #[inline]
    pub fn span(&self, pos: usize) -> (usize, usize) {
        let (col, width) = self.spans[pos];
        (col as usize, width as usize)
    }

    /// Values of the window at permuted position `pos` over compressed
    /// rows `u_lo..u_hi`: one contiguous row-major run of
    /// `(u_hi - u_lo) × width` floats, `width` the window's span width.
    #[inline]
    pub fn window_values(&self, pos: usize, u_lo: usize, u_hi: usize) -> &[f32] {
        let (col, width) = self.span(pos);
        let at = col * self.w;
        &self.panels.as_slice()[at + u_lo * width..at + u_hi * width]
    }

    /// The whole gather table, position-major: the window at permuted
    /// position `pos` gathers through `gather()[pos * w..(pos + 1) * w]`.
    pub fn gather(&self) -> &[u32] {
        &self.gather
    }

    /// Absolute gather indices of the window at permuted position `pos`,
    /// restricted to compressed rows `u_lo..u_hi`.
    #[inline]
    pub fn gather_span(&self, pos: usize, u_lo: usize, u_hi: usize) -> &[u32] {
        let at = pos * self.w;
        &self.gather[at + u_lo..at + u_hi]
    }

    /// Bytes this format occupies: value panels, absolute `u32` indices,
    /// and the `u32`-sized permutation table. The indices cost `4×` the
    /// index bytes of the operand's `u8` offsets — the price of skipping
    /// the per-call index reconstruction. The panels are shared with the
    /// operand and every other staging of it, so a staging adds only the
    /// index and permutation bytes to the operand's.
    pub fn storage_bytes(&self) -> usize {
        self.layout.storage_bytes_for(self.w, self.n, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::pattern::NmConfig;
    use crate::prune::PrunePolicy;

    fn sparse(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
        let b = MatrixF32::random(k, n, seed);
        NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).unwrap()
    }

    #[test]
    fn layout_rejects_zero_parameters() {
        assert!(SlicedLayout::new(0, 4).is_err());
        assert!(SlicedLayout::new(4, 0).is_err());
        assert!(SlicedLayout::new(1, 1).is_ok());
        let err = SlicedMatrix::build(
            &sparse(16, 16, NmConfig::new(2, 4, 4).unwrap(), 1),
            SlicedLayout {
                slice_height: 0,
                sort_window: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn format_tags_round_trip_and_reject_junk() {
        for f in [
            StorageFormat::RowMajor,
            StorageFormat::Sliced(SlicedLayout::DEFAULT),
            StorageFormat::Sliced(SlicedLayout::new(4, 16).unwrap()),
        ] {
            assert_eq!(StorageFormat::from_name(&f.tag()).unwrap(), f);
            assert_eq!(f.to_string(), f.tag());
        }
        let max = SlicedLayout::MAX_WINDOWS;
        let edge = format!("sliced:{max}:{max}");
        assert_eq!(
            StorageFormat::from_name(&edge).unwrap(),
            StorageFormat::Sliced(SlicedLayout::new(max, max).unwrap())
        );
        // Above the cap: an `InvalidConfig` naming the value.
        for (bad, named) in [
            ("sliced:65537:1", "C=65537"),
            ("sliced:1:65537", "sigma=65537"),
            ("sliced:18446744073709551615:1", "C=18446744073709551615"),
            (
                "sliced:8:18446744073709551615",
                "sigma=18446744073709551615",
            ),
        ] {
            match StorageFormat::from_name(bad) {
                Err(NmError::InvalidConfig { reason }) => {
                    assert!(reason.contains(named), "{reason}")
                }
                other => panic!("`{bad}` must be an InvalidConfig, got {other:?}"),
            }
        }
        // Only what `tag()` writes parses: no other spelling, no case
        // folding, no bare `sliced`.
        for bad in [
            "csr",
            "row-major",
            "row_major",
            "ROWMAJOR",
            "sliced",
            "SLICED",
            "Sliced:4:16",
            " rowmajor",
            "sliced:",
            "sliced:0:4",
            "sliced:4",
            "sliced:4:2:1",
            "sliced:18446744073709551616:1",
            "sliced:1:99999999999999999999999",
            "sliced:-1:4",
        ] {
            assert!(
                matches!(
                    StorageFormat::from_name(bad),
                    Err(NmError::InvalidConfig { .. })
                ),
                "`{bad}` must be rejected"
            );
        }
        assert!(!StorageFormat::RowMajor.is_sliced());
        assert!(StorageFormat::default() == StorageFormat::RowMajor);
        assert!(StorageFormat::Sliced(SlicedLayout::default()).is_sliced());
    }

    #[test]
    fn parameters_at_or_above_the_window_count_act_as_it() {
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        let sb = sparse(32, 60, cfg, 21); // q = 15 windows
        let as_q = SlicedMatrix::build(&sb, SlicedLayout::new(15, 15).unwrap()).unwrap();
        for c in [16, SlicedLayout::MAX_WINDOWS] {
            let big = SlicedMatrix::build(&sb, SlicedLayout::new(c, c).unwrap()).unwrap();
            assert_eq!(big.perm().perm, as_q.perm().perm);
            assert_eq!((big.slices(), big.slice_windows(0)), (1, 0..15));
            assert_eq!(big.gather(), as_q.gather());
        }
    }

    #[test]
    fn permutation_is_valid_and_stable_within_sort_groups() {
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        let sb = sparse(32, 64, cfg, 7); // q = 16 windows
        let sm = SlicedMatrix::build(&sb, SlicedLayout::new(4, 8).unwrap()).unwrap();
        let mut sorted = sm.perm().perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        // Windows never cross their sigma group.
        for (new, &old) in sm.perm().perm.iter().enumerate() {
            assert_eq!(new / 8, old / 8, "window {old} escaped its sort group");
        }
        // sigma = 1 is the identity.
        let id = SlicedMatrix::build(&sb, SlicedLayout::new(4, 1).unwrap()).unwrap();
        assert_eq!(id.perm().perm, (0..16).collect::<Vec<_>>());
        assert_eq!(id.perm().swaps, 0);
    }

    #[test]
    fn inverse_round_trips_bit_for_bit() {
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        let sb = sparse(32, 60, cfg, 9); // ragged n: final window is narrower
        let sm = SlicedMatrix::build(&sb, SlicedLayout::new(3, 15).unwrap()).unwrap();
        let inv = sm.inverse();
        for (old, &new) in inv.iter().enumerate() {
            assert_eq!(sm.perm().perm[new], old);
        }
        // Reassembling rows from the window panels through the spans
        // restores the original values exactly.
        let values = sb.values_row_major();
        for u in 0..sm.w() {
            let mut restored = vec![0f32; sm.cols()];
            for s in 0..sm.slices() {
                for pos in sm.slice_windows(s) {
                    let (col, lw) = sm.span(pos);
                    restored[col..col + lw].copy_from_slice(sm.window_values(pos, u, u + 1));
                }
            }
            assert_eq!(restored, values.row(u), "row {u} must restore bit-for-bit");
        }
    }

    #[test]
    fn gather_indices_are_absolute_and_match_d() {
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = sparse(40, 32, cfg, 11); // k=40 pads to 40 (M=8): w=10
        let sm = SlicedMatrix::build(&sb, SlicedLayout::new(1, 2).unwrap()).unwrap();
        let d = sb.indices();
        for s in 0..sm.slices() {
            for pos in sm.slice_windows(s) {
                let jw = sm.perm().perm[pos];
                let idx = sm.gather_span(pos, 0, sm.w());
                for (u, &got) in idx.iter().enumerate() {
                    let want = u / cfg.n * cfg.m + d.get(u, jw) as usize;
                    assert_eq!(got as usize, want);
                }
                // Partial ranges view the same stream.
                assert_eq!(sm.gather_span(pos, 2, 5), &idx[2..5]);
            }
        }
    }

    #[test]
    fn ragged_window_count_leaves_a_short_tail_slice() {
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        let sb = sparse(16, 28, cfg, 13); // q = 7 windows
        let sm = SlicedMatrix::build(&sb, SlicedLayout::new(4, 4).unwrap()).unwrap();
        assert_eq!(sm.slices(), 2);
        assert_eq!(sm.slice_windows(0).len(), 4);
        assert_eq!(sm.slice_windows(1).len(), 3);
        assert_eq!((0..7).map(|pos| sm.span(pos).1).sum::<usize>(), 28);
    }

    #[test]
    fn storage_accounting_matches_the_analytic_formula() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        let sb = sparse(64, 64, cfg, 15);
        let sm = SlicedMatrix::build(&sb, SlicedLayout::DEFAULT).unwrap();
        let (w, n, q) = (sb.w(), sb.cols(), sb.q());
        assert_eq!(sm.storage_bytes(), w * n * 4 + w * q * 4 + q * 4);
        assert_eq!(
            sm.storage_bytes(),
            SlicedLayout::DEFAULT.storage_bytes_for(w, n, q)
        );
        // One index per compressed row per window; the values are the
        // operand's panels, not a copy.
        assert_eq!(sm.gather.len(), w * q);
        assert!(Arc::ptr_eq(&sm.panels, sb.panel_buf()));
    }
}
