//! Blocking parameters: Table I, `Para_Init_Table`, and the shared-memory
//! equation (Eq. 4/5) that derives `ks`.

use gpu_sim::device::DeviceConfig;
use nm_core::error::{NmError, Result};
use nm_core::pattern::NmConfig;
use serde::{Deserialize, Serialize};

/// Table I row: shared-memory block, warp tile and thread tile sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingParams {
    /// Block rows of `C` per thread block.
    pub ms: usize,
    /// Block columns of `C` per thread block.
    pub ns: usize,
    /// Warp-tile rows (`mr = lanes_y · mt`).
    pub mr: usize,
    /// Warp-tile columns (`nr = lanes_x · nt`).
    pub nr: usize,
    /// Thread-tile rows.
    pub mt: usize,
    /// Thread-tile columns.
    pub nt: usize,
}

impl BlockingParams {
    /// Table I "small" column.
    pub const fn small() -> Self {
        Self {
            ms: 32,
            ns: 32,
            mr: 16,
            nr: 32,
            mt: 4,
            nt: 4,
        }
    }

    /// Table I "medium" column.
    pub const fn medium() -> Self {
        Self {
            ms: 32,
            ns: 64,
            mr: 32,
            nr: 32,
            mt: 8,
            nt: 4,
        }
    }

    /// Table I "large" column.
    pub const fn large() -> Self {
        Self {
            ms: 64,
            ns: 128,
            mr: 64,
            nr: 32,
            mt: 8,
            nt: 8,
        }
    }

    /// All three Table I rows with their labels, in paper order.
    pub fn table_i() -> [(&'static str, BlockingParams); 3] {
        [
            ("small", Self::small()),
            ("medium", Self::medium()),
            ("large", Self::large()),
        ]
    }

    /// Listing 1's `Para_Init_Table(m, n)`: select a Table I row by problem
    /// footprint, matching the Table II size classes (A,B → small; C,D →
    /// medium; E,F → large).
    pub fn para_init_table(m: usize, n: usize) -> Self {
        let cells = m.saturating_mul(n);
        if cells <= 512 * 1024 {
            Self::small()
        } else if cells <= 1024 * 2048 {
            Self::medium()
        } else {
            Self::large()
        }
    }

    /// [`BlockingParams::para_init_table`] with `ns` widened to the least
    /// common multiple of itself and the vector length `l`, so the CPU
    /// column block holds whole windows at any `L` (Table I's `ns` are
    /// multiples of 32 only). A preset whose `ns` `l` divides is returned
    /// as is.
    pub fn para_init_table_for(m: usize, n: usize, l: usize) -> Self {
        let mut params = Self::para_init_table(m, n);
        if !params.ns.is_multiple_of(l) {
            params.ns = lcm(params.ns, l);
        }
        params
    }

    /// Threads per block: `(ms·ns)/(mt·nt)`.
    pub fn threads(&self) -> usize {
        self.ms * self.ns / (self.mt * self.nt)
    }

    /// Warps per block: `(ms/mr)·(ns/nr)`.
    pub fn warps(&self) -> usize {
        (self.ms / self.mr) * (self.ns / self.nr)
    }

    /// Warp lane grid `(lanes_y, lanes_x)` — 4×8, 8×4 etc.
    pub fn lane_grid(&self) -> (usize, usize) {
        (self.mr / self.mt, self.nr / self.nt)
    }

    /// Structural validation: divisibility, 32-lane warps, Table I's
    /// "multiples of 32" rule, and the Eq. (6) register budget.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(NmError::InvalidBlocking { reason });
        if !self.ms.is_multiple_of(32) || !self.ns.is_multiple_of(32) {
            return fail(format!(
                "ms={} and ns={} must be multiples of 32 (bank-conflict rule)",
                self.ms, self.ns
            ));
        }
        if !self.ms.is_multiple_of(self.mr) || !self.ns.is_multiple_of(self.nr) {
            return fail(format!(
                "warp tile {}x{} must divide block {}x{}",
                self.mr, self.nr, self.ms, self.ns
            ));
        }
        if !self.mr.is_multiple_of(self.mt) || !self.nr.is_multiple_of(self.nt) {
            return fail(format!(
                "thread tile {}x{} must divide warp tile {}x{}",
                self.mt, self.nt, self.mr, self.nr
            ));
        }
        let (ly, lx) = self.lane_grid();
        if ly * lx != 32 {
            return fail(format!("warp lane grid {ly}x{lx} must have 32 lanes"));
        }
        if self.mt + self.nt + self.mt * self.nt > 255 {
            return fail(format!(
                "thread tile {}x{} exceeds the 255-register budget",
                self.mt, self.nt
            ));
        }
        Ok(())
    }
}

/// Fully derived blocking for one (device, sparsity, k) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blocking {
    /// The Table I parameters this blocking instantiates.
    pub params: BlockingParams,
    /// Dense k-depth per main-loop iteration (multiple of `M`).
    pub ks: usize,
    /// Compressed rows per iteration (`ws = ks·N/M`).
    pub ws: usize,
    /// Pruning windows per block column (`qs = ns/L`).
    pub qs: usize,
    /// Whether shared-memory tiles are double-buffered (V3).
    pub double_buffer: bool,
    /// Shared-memory bytes per block (all buffers).
    pub smem_bytes: usize,
    /// Estimated registers per thread.
    pub regs_per_thread: usize,
}

/// Fixed per-thread register overhead (pointers, loop counters, offsets).
const REG_OVERHEAD: usize = 26;
/// Cap on the per-thread index-prefetch buffer (`idx[ws]` in Listing 4);
/// beyond this the kernel prefetches in chunks.
const IDX_PREFETCH_CAP: usize = 40;

/// Derive `ks` from the shared-memory capacity (paper Eq. 4/5) and fill in
/// the dependent quantities.
///
/// Eq. (4): `4·(ks·ms + ws·ns + ws·qs) ≤ SM_Size · 0.5` with
/// `ws = ks·N/M`; the reserved half holds the V3 double buffers, so V1/V2
/// simply use half the SM (allowing two resident blocks) while V3 uses all
/// of it.
pub fn derive_blocking(
    dev: &DeviceConfig,
    params: BlockingParams,
    cfg: NmConfig,
    k: usize,
    double_buffer: bool,
    inner_double_buffer: bool,
) -> Result<Blocking> {
    params.validate()?;
    if !params.ns.is_multiple_of(cfg.l) {
        return Err(NmError::InvalidBlocking {
            reason: format!(
                "ns={} must be a multiple of the vector length L={}",
                params.ns, cfg.l
            ),
        });
    }
    let (n_keep, m_win) = (cfg.n, cfg.m);
    let qs = params.ns / cfg.l;
    // Half the SM per Eq. 4, minus a small reserve for the `col_info`
    // staging buffer and "other temporary variables" (paper §III-B1).
    let budget = dev.max_shared_per_sm / 2 - 2048;
    // bytes(ks) = 4·ks·ms + 4·(ks·N/M)·ns + (ks·N/M)·qs  (Ds stored as u8)
    let denom = 4.0 * params.ms as f64
        + (n_keep as f64 / m_win as f64) * (4.0 * params.ns as f64 + qs as f64);
    let ks_cap = (budget as f64 / denom).floor() as usize;
    let k_padded = k.div_ceil(m_win) * m_win;
    let ks = (ks_cap / m_win * m_win).clamp(m_win, k_padded.max(m_win));
    let ws = ks * n_keep / m_win;

    let tile_bytes = 4 * ks * params.ms + 4 * ws * params.ns + ws * qs;
    let smem_bytes = tile_bytes * if double_buffer { 2 } else { 1 };

    let frag = (params.mt + params.nt) * if inner_double_buffer { 2 } else { 1 };
    let idx_regs = if inner_double_buffer {
        ws.min(IDX_PREFETCH_CAP)
    } else {
        0
    };
    let regs_per_thread =
        (params.mt * params.nt + frag + idx_regs + REG_OVERHEAD).min(dev.max_registers_per_thread);

    Ok(Blocking {
        params,
        ks,
        ws,
        qs,
        double_buffer,
        smem_bytes,
        regs_per_thread,
    })
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::{a100_80g, rtx3090};

    fn cfg(n: usize, m: usize) -> NmConfig {
        NmConfig::new(n, m, 32).unwrap()
    }

    #[test]
    fn window_aligned_preset_widens_only_what_l_does_not_divide() {
        for (m, n) in [(1, 640), (8, 4096), (512, 2048), (4096, 4096)] {
            let preset = BlockingParams::para_init_table(m, n);
            for l in [4, 8, 16, 32] {
                assert_eq!(BlockingParams::para_init_table_for(m, n, l), preset);
            }
            for l in [48, 64, 96] {
                let widened = BlockingParams::para_init_table_for(m, n, l);
                assert_eq!(widened.ns, lcm(preset.ns, l), "{m}x{n} L = {l}");
                assert_eq!(
                    BlockingParams {
                        ns: preset.ns,
                        ..widened
                    },
                    preset
                );
            }
        }
    }

    #[test]
    fn table_i_rows_are_valid() {
        for (label, p) in BlockingParams::table_i() {
            p.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(p.lane_grid().0 * p.lane_grid().1, 32, "{label}");
        }
    }

    #[test]
    fn table_i_thread_and_warp_counts() {
        assert_eq!(BlockingParams::small().threads(), 64);
        assert_eq!(BlockingParams::small().warps(), 2);
        assert_eq!(BlockingParams::medium().threads(), 64);
        assert_eq!(BlockingParams::medium().warps(), 2);
        assert_eq!(BlockingParams::large().threads(), 128);
        assert_eq!(BlockingParams::large().warps(), 4);
    }

    #[test]
    fn para_init_matches_table_ii_classes() {
        assert_eq!(
            BlockingParams::para_init_table(512, 512),
            BlockingParams::small()
        );
        assert_eq!(
            BlockingParams::para_init_table(512, 1024),
            BlockingParams::small()
        );
        assert_eq!(
            BlockingParams::para_init_table(512, 2048),
            BlockingParams::medium()
        );
        assert_eq!(
            BlockingParams::para_init_table(1024, 2048),
            BlockingParams::medium()
        );
        assert_eq!(
            BlockingParams::para_init_table(2048, 4096),
            BlockingParams::large()
        );
        assert_eq!(
            BlockingParams::para_init_table(4096, 4096),
            BlockingParams::large()
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = BlockingParams::large();
        p.ms = 48; // not a multiple of 32
        assert!(p.validate().is_err());
        let mut p = BlockingParams::large();
        p.mt = 16;
        p.nt = 16; // 288 regs
        assert!(p.validate().is_err());
        let mut p = BlockingParams::large();
        p.mr = 48; // does not divide ms=64
        assert!(p.validate().is_err());
    }

    #[test]
    fn ks_satisfies_eq4_budget() {
        let dev = a100_80g();
        for c in [
            cfg(8, 16),
            cfg(6, 16),
            cfg(4, 16),
            cfg(2, 16),
            NmConfig::new(32, 32, 32).unwrap(),
        ] {
            for (_, p) in BlockingParams::table_i() {
                let b = derive_blocking(&dev, p, c, 4096, false, false).unwrap();
                let bytes = 4 * (b.ks * p.ms + b.ws * p.ns) + b.ws * b.qs;
                assert!(
                    bytes <= dev.max_shared_per_sm / 2,
                    "Eq.4 violated for {c}: {bytes} > {}",
                    dev.max_shared_per_sm / 2
                );
                assert_eq!(b.ks % c.m, 0, "ks must be a multiple of M");
                assert_eq!(b.ws, b.ks * c.n / c.m);
            }
        }
    }

    #[test]
    fn higher_sparsity_allows_larger_ks() {
        // With smaller ws, the same budget admits deeper k blocks — the
        // §IV-E observation that 75% reaches higher AI than 62.5%.
        let dev = a100_80g();
        let p = BlockingParams::large();
        let k50 = derive_blocking(&dev, p, cfg(8, 16), 8192, false, false)
            .unwrap()
            .ks;
        let k875 = derive_blocking(&dev, p, cfg(2, 16), 8192, false, false)
            .unwrap()
            .ks;
        assert!(
            k875 > k50,
            "ks at 87.5% ({k875}) must exceed ks at 50% ({k50})"
        );
    }

    #[test]
    fn double_buffer_doubles_smem() {
        let dev = a100_80g();
        let p = BlockingParams::large();
        let single = derive_blocking(&dev, p, cfg(4, 16), 4096, false, false).unwrap();
        let double = derive_blocking(&dev, p, cfg(4, 16), 4096, true, true).unwrap();
        assert_eq!(double.smem_bytes, 2 * single.smem_bytes);
        assert!(double.smem_bytes <= dev.max_shared_per_sm);
        assert!(double.regs_per_thread > single.regs_per_thread);
    }

    #[test]
    fn ks_clamps_to_problem_depth() {
        let dev = a100_80g();
        let p = BlockingParams::small();
        let b = derive_blocking(&dev, p, cfg(8, 16), 64, false, false).unwrap();
        assert!(b.ks <= 64);
        assert_eq!(b.ks % 16, 0);
    }

    #[test]
    fn smaller_smem_devices_get_smaller_ks() {
        let p = BlockingParams::large();
        let a = derive_blocking(&a100_80g(), p, cfg(4, 16), 8192, false, false)
            .unwrap()
            .ks;
        let r = derive_blocking(&rtx3090(), p, cfg(4, 16), 8192, false, false)
            .unwrap()
            .ks;
        assert!(
            r < a,
            "3090 (100KB smem) ks {r} must be below A100 (164KB) {a}"
        );
    }

    #[test]
    fn rejects_ns_not_multiple_of_l() {
        let dev = a100_80g();
        let p = BlockingParams::small(); // ns = 32
        let c = NmConfig::new(2, 16, 48).unwrap(); // L = 48 does not divide 32
        assert!(derive_blocking(&dev, p, c, 1024, false, false).is_err());
    }

    #[test]
    fn registers_capped_at_architectural_limit() {
        let dev = a100_80g();
        let p = BlockingParams::large();
        let b = derive_blocking(&dev, p, cfg(2, 16), 8192, true, true).unwrap();
        assert!(b.regs_per_thread <= 255);
    }
}
