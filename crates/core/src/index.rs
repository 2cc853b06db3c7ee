//! The index matrix `D` and its storage layouts.
//!
//! `D` has shape `w × q` (`w = k·N/M` compressed rows, `q = ⌈n/L⌉` pruning
//! windows per row). Entry `D[u][j]` is the offset (in `0..M`) of the
//! `u`-th retained vector inside its pruning window, for window column `j`.
//! Within one window (a run of `N` consecutive rows belonging to the same
//! `k`-window) offsets are strictly increasing — the canonical form produced
//! by every pruner in this crate.
//!
//! The paper stores each entry in `⌈log₂ M⌉` bits (§III-B eq. 4 discussion)
//! and transforms the layout during offline pre-processing to reduce global
//! memory transactions (§III-C1, Fig. 4). Both are modeled here:
//! [`IndexMatrix`] is the plain `u8` working representation, and
//! [`IndexMatrix::storage_bytes`] / [`IndexMatrix::bit_pack`] expose the
//! footprint of each [`IndexLayout`].

use crate::error::{NmError, Result};
use crate::pattern::NmConfig;
use serde::{Deserialize, Serialize};

/// Physical layout of `D` in (simulated) global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexLayout {
    /// One byte per entry, row-major — the naive layout.
    RowMajorU8,
    /// One byte per entry, tiled so each thread block reads a contiguous
    /// `ws × qs` panel (the paper's `transformLayout`).
    Blocked {
        /// Block height in compressed rows (`ws`).
        ws: usize,
        /// Block width in pruning windows (`qs`).
        qs: usize,
    },
    /// `⌈log₂ M⌉` bits per entry, bit-packed row-major.
    BitPacked,
}

/// Dense `w × q` matrix of pruning-window offsets (values in `0..M`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexMatrix {
    w: usize,
    q: usize,
    data: Vec<u8>,
}

impl IndexMatrix {
    /// Zero-filled `w × q` index matrix.
    pub fn zeros(w: usize, q: usize) -> Self {
        Self {
            w,
            q,
            data: vec![0; w * q],
        }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != w * q`.
    pub fn from_vec(w: usize, q: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), w * q, "index buffer length mismatch");
        Self { w, q, data }
    }

    /// Compressed row count `w`.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Window-column count `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, u: usize, j: usize) -> u8 {
        debug_assert!(u < self.w && j < self.q);
        self.data[u * self.q + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, u: usize, j: usize, v: u8) {
        debug_assert!(u < self.w && j < self.q);
        self.data[u * self.q + j] = v;
    }

    /// Borrow the raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Validate canonical form against `cfg`:
    /// every entry `< M`, and entries strictly increasing within each window
    /// (each run of `N` rows). Returns the first violation found.
    pub fn validate(&self, cfg: NmConfig) -> Result<()> {
        let n = cfg.n;
        let m = cfg.m as u32;
        for u in 0..self.w {
            for j in 0..self.q {
                let v = self.get(u, j) as u32;
                if v >= m {
                    return Err(NmError::CorruptIndex {
                        row: u,
                        col: j,
                        value: v,
                        bound: m,
                    });
                }
                if u % n != 0 {
                    let prev = self.get(u - 1, j) as u32;
                    if v <= prev {
                        return Err(NmError::CorruptIndex {
                            row: u,
                            col: j,
                            value: v,
                            bound: prev + 1, // must be at least prev+1
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Bytes occupied by this matrix under `layout` (for traffic modeling).
    pub fn storage_bytes(&self, cfg: NmConfig, layout: IndexLayout) -> usize {
        match layout {
            IndexLayout::RowMajorU8 => self.w * self.q,
            IndexLayout::Blocked { ws, qs } => {
                // Same byte count, rounded up to whole tiles (panels are padded).
                let tiles_w = self.w.div_ceil(ws);
                let tiles_q = self.q.div_ceil(qs);
                tiles_w * tiles_q * ws * qs
            }
            IndexLayout::BitPacked => {
                let bits = self.w * self.q * cfg.index_bits() as usize;
                bits.div_ceil(8)
            }
        }
    }

    /// Bit-pack into `⌈log₂ M⌉` bits per entry (row-major bit stream).
    pub fn bit_pack(&self, cfg: NmConfig) -> Vec<u8> {
        let bits = cfg.index_bits();
        let total_bits = self.data.len() * bits as usize;
        let mut out = vec![0u8; total_bits.div_ceil(8)];
        let mut bitpos = 0usize;
        for &v in &self.data {
            let mut val = v as u32;
            for _ in 0..bits {
                if val & 1 != 0 {
                    out[bitpos / 8] |= 1 << (bitpos % 8);
                }
                val >>= 1;
                bitpos += 1;
            }
        }
        out
    }

    /// Inverse of [`Self::bit_pack`]. A `w × q` shape whose entry or bit
    /// count overflows `usize` is an [`NmError::DimensionMismatch`].
    pub fn bit_unpack(packed: &[u8], w: usize, q: usize, cfg: NmConfig) -> Result<Self> {
        let bits = cfg.index_bits() as usize;
        let needed_bits = w
            .checked_mul(q)
            .and_then(|e| e.checked_mul(bits))
            .ok_or_else(|| NmError::DimensionMismatch {
                expected: format!("a {w}x{q} index matrix whose bit count fits usize"),
                found: format!("{w}·{q}·{bits} bits"),
            })?;
        if packed.len() < needed_bits.div_ceil(8) {
            return Err(NmError::DimensionMismatch {
                expected: format!("at least {} packed bytes", needed_bits.div_ceil(8)),
                found: format!("{} bytes", packed.len()),
            });
        }
        // A shift register: whole bytes go in at the top, entries come out
        // at the bottom. `bits ≤ 8`, so one byte always refills it.
        let mask = (1u32 << bits) - 1;
        let (mut reg, mut held) = (0u32, 0usize);
        let mut bytes = packed.iter();
        let data = (0..w * q)
            .map(|_| {
                if held < bits {
                    reg |= u32::from(*bytes.next().expect("length checked above")) << held;
                    held += 8;
                }
                let v = (reg & mask) as u8;
                reg >>= bits;
                held -= bits;
                v
            })
            .collect();
        Ok(Self { w, q, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg24() -> NmConfig {
        NmConfig::new(2, 4, 4).unwrap()
    }

    #[test]
    fn validate_accepts_canonical() {
        // w=4 (two windows of N=2), q=2.
        let d = IndexMatrix::from_vec(4, 2, vec![0, 1, 2, 3, 1, 0, 3, 2]);
        d.validate(cfg24()).unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let d = IndexMatrix::from_vec(2, 1, vec![0, 4]);
        let err = d.validate(cfg24()).unwrap_err();
        match err {
            NmError::CorruptIndex {
                row,
                col,
                value,
                bound,
            } => {
                assert_eq!((row, col, value, bound), (1, 0, 4, 4));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_non_increasing_within_window() {
        // Window rows (0,1): 2 then 2 — not strictly increasing.
        let d = IndexMatrix::from_vec(2, 1, vec![2, 2]);
        assert!(d.validate(cfg24()).is_err());
        // Decreasing also fails.
        let d = IndexMatrix::from_vec(2, 1, vec![3, 1]);
        assert!(d.validate(cfg24()).is_err());
        // But a new window may restart low.
        let d = IndexMatrix::from_vec(4, 1, vec![2, 3, 0, 1]);
        d.validate(cfg24()).unwrap();
    }

    #[test]
    fn bit_pack_round_trip() {
        let cfg = NmConfig::new(2, 16, 4).unwrap(); // 4 bits per entry
        let d = IndexMatrix::from_vec(4, 3, vec![0, 5, 9, 3, 7, 15, 1, 2, 4, 8, 10, 12]);
        let packed = d.bit_pack(cfg);
        assert_eq!(packed.len(), (12 * 4usize).div_ceil(8));
        let back = IndexMatrix::bit_unpack(&packed, 4, 3, cfg).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn bit_pack_round_trip_odd_bits() {
        let cfg = NmConfig::new(2, 5, 1).unwrap(); // M=5 -> 3 bits
        let d = IndexMatrix::from_vec(2, 3, vec![0, 1, 4, 2, 3, 4]);
        let back = IndexMatrix::bit_unpack(&d.bit_pack(cfg), 2, 3, cfg).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn bit_pack_round_trips_every_width() {
        // M = 2..=256 covers 1..=8 bits; w·q = 7·3 = 21 entries, so w·q·bits
        // is a multiple of 8 only at 8 bits, and the stream ends mid-byte.
        for bits in 1..=8u32 {
            let m = 1usize << bits;
            let cfg = NmConfig::new(1, m, 1).unwrap();
            assert_eq!(cfg.index_bits(), bits);
            let (w, q) = (7, 3);
            let data = (0..w * q).map(|i| ((i * 37 + 11) % m) as u8).collect();
            let d = IndexMatrix::from_vec(w, q, data);
            let packed = d.bit_pack(cfg);
            assert_eq!(
                packed.len(),
                (w * q * bits as usize).div_ceil(8),
                "{bits} bits"
            );
            let back = IndexMatrix::bit_unpack(&packed, w, q, cfg).unwrap();
            assert_eq!(back, d, "{bits} bits");
        }
    }

    #[test]
    fn bit_unpack_rejects_short_buffer() {
        let cfg = NmConfig::new(2, 16, 4).unwrap();
        assert!(IndexMatrix::bit_unpack(&[0u8; 1], 4, 4, cfg).is_err());
    }

    #[test]
    fn bit_unpack_rejects_an_overflowing_shape() {
        // Each shape's bit count overflows usize: the result must be an
        // error, never a `w × q` matrix with an empty (wrapped) buffer.
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        for (w, q) in [(1 << 62, 4), (usize::MAX, 2), (1 << 63, 1)] {
            match IndexMatrix::bit_unpack(&[], w, q, cfg) {
                Err(NmError::DimensionMismatch { expected, .. }) => {
                    assert!(expected.contains("fits usize"), "{w}x{q}: {expected}")
                }
                other => panic!("{w}x{q}: expected an overflow error, got {other:?}"),
            }
        }
    }

    #[test]
    fn storage_bytes_by_layout() {
        let cfg = NmConfig::new(2, 16, 4).unwrap(); // 4 bits/entry
        let d = IndexMatrix::zeros(8, 6);
        assert_eq!(d.storage_bytes(cfg, IndexLayout::RowMajorU8), 48);
        assert_eq!(d.storage_bytes(cfg, IndexLayout::BitPacked), 24);
        // 8x6 in 4x4 tiles -> 2x2 tiles of 16 entries.
        assert_eq!(
            d.storage_bytes(cfg, IndexLayout::Blocked { ws: 4, qs: 4 }),
            64
        );
    }

    #[test]
    fn bitpacked_is_never_larger_than_u8() {
        for m in [2usize, 4, 8, 16, 32] {
            let cfg = NmConfig::new(1, m, 1).unwrap();
            let d = IndexMatrix::zeros(16, 16);
            assert!(
                d.storage_bytes(cfg, IndexLayout::BitPacked)
                    <= d.storage_bytes(cfg, IndexLayout::RowMajorU8)
            );
        }
    }
}
