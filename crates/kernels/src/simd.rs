//! Explicit SIMD micro-kernels with runtime ISA dispatch.
//!
//! The CPU kernel's hot loop is a register-resident `C` tile accumulated
//! across a whole k-block: up to [`MicroKernel::tile_rows`] rows by 16 (or
//! 32) columns, with `B` streamed from the staged block and `A` gathered
//! through per-window indices. Until this module existed that tile was a
//! scalar loop that leaned on LLVM auto-vectorization — which, at the
//! default `x86-64` target baseline, means SSE2 without FMA. Here the same
//! tile is written explicitly with `std::arch` intrinsics:
//!
//! * **AVX2 + FMA** (x86_64) — two/four 256-bit accumulators per row,
//! * **AVX-512F** (x86_64) — one/two 512-bit accumulators per row,
//! * **NEON** (aarch64) — four/eight 128-bit accumulators per row,
//! * **scalar** — the portable fallback, and the A/B baseline for the
//!   `bench_measured` SIMD-vs-scalar comparison.
//!
//! Two tile widths exist: the classic `R×16` ([`MicroKernel::tile16`])
//! and a wider `R×32` dual-accumulator variant ([`MicroKernel::tile32`])
//! used when the vector length `L` is a multiple of 32 — one `A` broadcast
//! then feeds twice the FMA work, and the extra independent accumulator
//! chains hide FMA latency.
//!
//! ## Tile height from the register file
//!
//! How many rows one streamed `B′` load can feed is bounded by the
//! accumulators the vector register file holds. AVX-512's 32 zmm
//! registers hold an `8×32` tile (16 accumulators, two `B′` vectors and a
//! broadcast), so [`MicroKernel::tile_rows`] is [`MW_TALL`] = 8 there: the
//! tall tile doubles the independent FMA chains and halves the `B′` loads
//! per FMA. AVX2 (16 ymm) and NEON (whose 32-wide tile already runs as two
//! 16-wide passes) stay at [`MW`] = 4, and so does the scalar fallback,
//! whose speed at 8 rows was never measured. Rows accumulate independently
//! in every tile, so the rung a row lands on never changes its result.
//!
//! ## Skinny tiles — the decode path
//!
//! Autoregressive decode multiplies one (or a handful of) activation rows
//! against the same pruned weights; forcing those shapes through the 4-row
//! tile would compute and then discard up to 3 rows of work. Both tiles
//! are therefore const-generic over the row count `R` and also run at
//! **1 and 2 rows**: the same streamed-`B′` inner loop, so a row panel
//! runs an (8→)4→2→1 ladder and no row ever pays for a sibling it
//! does not have. At one row the tile *is* a vectorized SpMV over the
//! staged block — the kernel the prepared decode path is built on.
//!
//! ## Dispatch discipline
//!
//! Feature detection (`is_x86_feature_detected!` /
//! `std::arch::is_aarch64_feature_detected!`) happens **once**, when a
//! [`MicroKernel`] is constructed — [`CpuPrepared`](crate::cpu::CpuPrepared)
//! stores the selection, so the per-block hot path only matches on an enum
//! it already holds, never re-detects. A `MicroKernel` for an unsupported
//! ISA is unrepresentable: every constructor verifies host support and
//! returns [`NmError::Unsupported`] otherwise, which is what makes the
//! `unsafe` calls into `#[target_feature]` functions sound.
//!
//! ## The one environment pin
//!
//! [`MicroKernel::select`] honors `NM_SPMM_ISA=scalar|avx2|avx512|neon|native`
//! (ASCII case-insensitive) so CI can A/B the SIMD and scalar paths on the
//! same host. Unset, empty and `native` mean native dispatch. Any other
//! value that is not an ISA name is [`NmError::InvalidConfig`] naming the
//! variable and the value; an ISA the host cannot run is
//! [`NmError::Unsupported`], never an illegal-instruction fault.

use nm_core::error::{NmError, Result};

/// The environment variable that pins [`MicroKernel::select`] to one ISA.
const ISA_ENV: &str = "NM_SPMM_ISA";

/// Rows of the classic register micro-tile — the ladder's top rung on
/// AVX2 and NEON.
pub const MW: usize = 4;
/// Rows of the tall register micro-tile — the ladder's top rung where the
/// register file holds it (AVX-512).
pub const MW_TALL: usize = 8;
/// Columns of the narrow micro-tile (the fast path's minimum granularity).
pub const NW: usize = 16;
/// Columns of the wide dual-accumulator micro-tile.
pub const NW2: usize = 32;

/// The instruction sets a micro-kernel can be compiled for.
///
/// All variants exist on every build target so names stay stable in
/// serialized artifacts (`BENCH_pr.json`); whether a variant can *run*
/// here is [`Isa::supported`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar tile (auto-vectorized at the build's baseline).
    Scalar,
    /// 256-bit AVX2 with FMA (x86_64).
    Avx2,
    /// 512-bit AVX-512F (x86_64).
    Avx512,
    /// 128-bit NEON (aarch64, where it is architecturally mandatory).
    Neon,
}

impl Isa {
    /// Every ISA, portable first.
    pub const ALL: [Isa; 4] = [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon];

    /// Stable identifier (`scalar`, `avx2`, `avx512`, `neon`) — the value
    /// recorded in `BENCH_pr.json`'s `isa` fields.
    pub fn name(&self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Inverse of [`Isa::name`] (ASCII case-insensitive).
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] for any other name.
    pub fn from_name(name: &str) -> Result<Self> {
        Self::ALL
            .into_iter()
            .find(|i| i.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| NmError::InvalidConfig {
                reason: format!("unknown ISA `{name}` (expected scalar, avx2, avx512 or neon)"),
            })
    }

    /// Whether this host can execute the ISA's micro-kernel: compiled for
    /// this architecture *and* the CPU reports the feature at runtime.
    pub fn supported(&self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest ISA this host supports (the default selection).
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if Isa::Avx512.supported() {
                return Isa::Avx512;
            }
            if Isa::Avx2.supported() {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if Isa::Neon.supported() {
                return Isa::Neon;
            }
        }
        Isa::Scalar
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated micro-kernel selection: an [`Isa`] this host is proven to
/// support. Construction is the *only* place feature detection happens;
/// the hot path dispatches on the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroKernel {
    isa: Isa,
}

impl MicroKernel {
    /// The portable scalar kernel (always available).
    pub fn scalar() -> Self {
        Self { isa: Isa::Scalar }
    }

    /// The widest kernel the host supports, ignoring `NM_SPMM_ISA`.
    pub fn native() -> Self {
        Self { isa: Isa::detect() }
    }

    /// The kernel for a specific ISA.
    ///
    /// # Errors
    /// [`NmError::Unsupported`] when this host cannot execute `isa` — the
    /// invariant that makes the SIMD dispatch sound.
    pub fn for_isa(isa: Isa) -> Result<Self> {
        if isa.supported() {
            Ok(Self { isa })
        } else {
            Err(NmError::Unsupported {
                reason: format!(
                    "the {isa} micro-kernel cannot run on this host \
                     (feature not detected or wrong architecture)"
                ),
            })
        }
    }

    /// The default selection: [`MicroKernel::native`] unless
    /// `NM_SPMM_ISA` pins an ISA (see the module docs).
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] naming the variable and the value when
    /// `NM_SPMM_ISA` is not an ISA name, and [`NmError::Unsupported`] when
    /// it names one this host cannot execute — a typo'd pin fails loudly,
    /// never silently falls back.
    pub fn select() -> Result<Self> {
        Self::select_from(isa_pin())
    }

    /// [`MicroKernel::select`] over an explicit pin (testable without
    /// touching the process environment).
    fn select_from(pin: Option<String>) -> Result<Self> {
        let Some(value) = pin else {
            return Ok(Self::native());
        };
        let isa = Isa::from_name(&value).map_err(|_| NmError::InvalidConfig {
            reason: format!(
                "{ISA_ENV}=`{value}` is not an ISA (use scalar, avx2, avx512, neon or native)"
            ),
        })?;
        Self::for_isa(isa)
    }

    /// Whether `NM_SPMM_ISA` pins [`MicroKernel::select`] to a *specific*
    /// ISA: it is set, non-empty and not `native` (those spell out native
    /// dispatch). Consumers use this to decide whether an ISA disagreement
    /// with a recorded baseline is a configuration error (pinned) or a
    /// hardware difference (native).
    pub fn env_pins_isa() -> bool {
        isa_pin().is_some()
    }

    /// Every kernel this host can execute (scalar first) — the set the
    /// parity test suite sweeps.
    pub fn available() -> Vec<Self> {
        Isa::ALL
            .into_iter()
            .filter(Isa::supported)
            .map(|isa| Self { isa })
            .collect()
    }

    /// The ISA this kernel executes.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Rows of the tallest register tile this kernel runs — the top rung
    /// of the CPU kernel's row walk: [`MW_TALL`] where the accumulators
    /// of an `8×32` tile fit the vector register file (AVX-512's 32 zmm),
    /// [`MW`] on AVX2, NEON and the scalar tile.
    pub fn tile_rows(&self) -> usize {
        match self.isa {
            Isa::Avx512 => MW_TALL,
            Isa::Avx2 | Isa::Neon | Isa::Scalar => MW,
        }
    }

    /// The `R×16` tile: accumulate `R` rows by [`NW`] columns of `C`
    /// across the whole k-block. `ar` are the `R` gather rows, `idx` the
    /// packed gather index per compressed row, `bs` the staged `B′` block
    /// (`stride` floats per compressed row), `boff` the column offset of
    /// this tile inside the block. `R` is a rung of the row ladder, at
    /// most [`MicroKernel::tile_rows`]; at one row the tile is the decode
    /// path's vectorized SpMV.
    ///
    /// One match on the construct-time ISA; the per-ISA bodies are
    /// const-generic over `R`, so every rung shares one implementation per
    /// ISA instead of drifting apart.
    ///
    /// Caller contract (checked by `debug_assert!`): every `idx` value is
    /// in bounds for every row of `ar`, and `bs` covers `idx.len()`
    /// compressed rows of `stride ≥ boff + 16` floats.
    #[inline]
    pub fn tile16<const R: usize>(
        &self,
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW]; R] {
        debug_check::<R, NW>(ar, idx, bs, stride, boff);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self` can only be constructed for a detected ISA.
            Isa::Avx2 => unsafe { x86::avx2_rx16(ar, idx, bs, stride, boff) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — avx512f was detected at construction.
            Isa::Avx512 => unsafe { x86::avx512_rx16(ar, idx, bs, stride, boff) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above — neon was detected at construction.
            Isa::Neon => unsafe { arm::neon_rx16(ar, idx, bs, stride, boff) },
            // Scalar, plus foreign-architecture variants that the
            // constructors make unreachable; falling back to the portable
            // tile keeps even a broken invariant memory-safe.
            _ => scalar_tile::<R, NW>(ar, idx, bs, stride, boff),
        }
    }

    /// The `R×32` dual-accumulator tile: as [`MicroKernel::tile16`] but
    /// [`NW2`] columns wide — one `A` broadcast feeds two 16-wide column
    /// chunks, and the doubled independent accumulator chains hide FMA
    /// latency. Used by the fast path when `L` is a multiple of 32; `bs`
    /// then needs `stride ≥ boff + 32`.
    #[inline]
    pub fn tile32<const R: usize>(
        &self,
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW2]; R] {
        debug_check::<R, NW2>(ar, idx, bs, stride, boff);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self` can only be constructed for a detected ISA.
            Isa::Avx2 => unsafe { x86::avx2_rx32(ar, idx, bs, stride, boff) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — avx512f was detected at construction.
            Isa::Avx512 => unsafe { x86::avx512_rx32(ar, idx, bs, stride, boff) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above — neon was detected at construction.
            Isa::Neon => unsafe { arm::neon_rx32(ar, idx, bs, stride, boff) },
            _ => scalar_tile::<R, NW2>(ar, idx, bs, stride, boff),
        }
    }
}

impl std::fmt::Display for MicroKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} micro-kernel", self.isa)
    }
}

/// The `NM_SPMM_ISA` value when it pins an ISA: set, non-empty and not
/// `native`. A value that is not Unicode stays a pin, so
/// [`MicroKernel::select`] rejects it rather than ignoring it.
fn isa_pin() -> Option<String> {
    isa_pin_from(std::env::var_os(ISA_ENV).as_deref())
}

/// [`isa_pin`] over an explicit value (testable without touching the
/// process environment).
fn isa_pin_from(raw: Option<&std::ffi::OsStr>) -> Option<String> {
    let value = raw?.to_string_lossy().into_owned();
    (!value.is_empty() && !value.eq_ignore_ascii_case("native")).then_some(value)
}

/// The caller contract every tile implementation relies on, verified in
/// debug builds at the dispatch boundary (so the `#[target_feature]`
/// bodies can use unchecked loads).
#[inline]
fn debug_check<const R: usize, const W: usize>(
    ar: &[&[f32]; R],
    idx: &[u32],
    bs: &[f32],
    stride: usize,
    boff: usize,
) {
    debug_assert!(stride >= boff + W, "tile columns exceed the block stride");
    debug_assert!(
        idx.is_empty() || (idx.len() - 1) * stride + boff + W <= bs.len(),
        "staged block too short for {} compressed rows",
        idx.len()
    );
    debug_assert!(
        idx.iter()
            .all(|&s| ar.iter().all(|row| (s as usize) < row.len())),
        "gather index out of bounds for the fast path"
    );
    let _ = (ar, idx, bs, stride, boff);
}

/// The portable tile, generic over row count and width — the pre-SIMD
/// `micro4x16` kept as the fallback and the forced-scalar A/B baseline.
/// What LLVM auto-vectorizes here is bounded by the build's target
/// baseline (plain SSE2 for default `x86-64`), which is exactly the gap
/// the explicit kernels close.
fn scalar_tile<const R: usize, const W: usize>(
    ar: &[&[f32]; R],
    idx: &[u32],
    bs: &[f32],
    stride: usize,
    boff: usize,
) -> [[f32; W]; R] {
    let mut acc = [[0f32; W]; R];
    for (ui, &s) in idx.iter().enumerate() {
        let b = &bs[ui * stride + boff..ui * stride + boff + W];
        let s = s as usize;
        for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
            let av = row[s];
            for (slot, bv) in acc_row.iter_mut().zip(b) {
                *slot += av * bv;
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+FMA and AVX-512F tiles. Every function is `unsafe` because it
    //! is compiled with `#[target_feature]`; callers must have verified
    //! the feature at runtime ([`super::MicroKernel`]'s constructors do).
    //! Loads are unchecked — the bounds are the caller contract checked by
    //! [`super::debug_check`] at the dispatch boundary.

    use super::{NW, NW2};
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires `avx2` and `fma` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile16`]. `R ≤ 4` keeps the accumulators in
    /// the register file.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn avx2_rx16<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW]; R] {
        // 2R ymm accumulators (R ≤ 4 rows × 2 vectors) + 2 streamed B
        // vectors + 1 broadcast: comfortably inside the 16 ymm registers.
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for (ui, &s) in idx.iter().enumerate() {
            let b = bs.as_ptr().add(ui * stride + boff);
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            let s = s as usize;
            for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
                let av = _mm256_set1_ps(*row.get_unchecked(s));
                acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
            }
        }
        let mut out = [[0f32; NW]; R];
        for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
            _mm256_storeu_ps(out_row.as_mut_ptr(), acc_row[0]);
            _mm256_storeu_ps(out_row.as_mut_ptr().add(8), acc_row[1]);
        }
        out
    }

    /// # Safety
    /// Requires `avx2` and `fma` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile32`]. `R ≤ 4` keeps the accumulators in
    /// the register file.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn avx2_rx32<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW2]; R] {
        // 4R ymm accumulators fill the register file at R = 4; LLVM folds
        // the four B loads into FMA memory operands, so only the broadcast
        // needs a live register. Skinny rows leave headroom.
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        for (ui, &s) in idx.iter().enumerate() {
            let b = bs.as_ptr().add(ui * stride + boff);
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            let b2 = _mm256_loadu_ps(b.add(16));
            let b3 = _mm256_loadu_ps(b.add(24));
            let s = s as usize;
            for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
                let av = _mm256_set1_ps(*row.get_unchecked(s));
                acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                acc_row[2] = _mm256_fmadd_ps(av, b2, acc_row[2]);
                acc_row[3] = _mm256_fmadd_ps(av, b3, acc_row[3]);
            }
        }
        let mut out = [[0f32; NW2]; R];
        for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
            for (v, &vec) in acc_row.iter().enumerate() {
                _mm256_storeu_ps(out_row.as_mut_ptr().add(v * 8), vec);
            }
        }
        out
    }

    /// # Safety
    /// Requires `avx512f` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile16`]. `R ≤ 8` keeps the accumulators in
    /// the register file.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_rx16<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW]; R] {
        // One zmm per row: the whole 16-wide tile row is a single vector.
        let mut acc = [_mm512_setzero_ps(); R];
        for (ui, &s) in idx.iter().enumerate() {
            let b = _mm512_loadu_ps(bs.as_ptr().add(ui * stride + boff));
            let s = s as usize;
            for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
                let av = _mm512_set1_ps(*row.get_unchecked(s));
                *acc_row = _mm512_fmadd_ps(av, b, *acc_row);
            }
        }
        let mut out = [[0f32; NW]; R];
        for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
            _mm512_storeu_ps(out_row.as_mut_ptr(), *acc_row);
        }
        out
    }

    /// # Safety
    /// Requires `avx512f` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile32`]. `R ≤ 8` keeps the accumulators in
    /// the register file.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_rx32<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW2]; R] {
        // Dual zmm accumulators per row — 2R of the 32 zmm registers: at
        // R = 8, 16 accumulators plus two B vectors and a broadcast.
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for (ui, &s) in idx.iter().enumerate() {
            let b = bs.as_ptr().add(ui * stride + boff);
            let b0 = _mm512_loadu_ps(b);
            let b1 = _mm512_loadu_ps(b.add(16));
            let s = s as usize;
            for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
                let av = _mm512_set1_ps(*row.get_unchecked(s));
                acc_row[0] = _mm512_fmadd_ps(av, b0, acc_row[0]);
                acc_row[1] = _mm512_fmadd_ps(av, b1, acc_row[1]);
            }
        }
        let mut out = [[0f32; NW2]; R];
        for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
            _mm512_storeu_ps(out_row.as_mut_ptr(), acc_row[0]);
            _mm512_storeu_ps(out_row.as_mut_ptr().add(16), acc_row[1]);
        }
        out
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! NEON tiles. NEON is architecturally mandatory on aarch64, but the
    //! same construct-time verification discipline applies.

    use super::{NW, NW2};
    use std::arch::aarch64::*;

    /// # Safety
    /// Requires `neon` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile16`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_rx16<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW]; R] {
        // 4R of the 32 q-registers hold the tile (R ≤ 4 rows × 4 vectors).
        let mut acc = [[vdupq_n_f32(0.0); 4]; R];
        for (ui, &s) in idx.iter().enumerate() {
            let b = bs.as_ptr().add(ui * stride + boff);
            let bv = [
                vld1q_f32(b),
                vld1q_f32(b.add(4)),
                vld1q_f32(b.add(8)),
                vld1q_f32(b.add(12)),
            ];
            let s = s as usize;
            for (row, acc_row) in ar.iter().zip(acc.iter_mut()) {
                let av = vdupq_n_f32(*row.get_unchecked(s));
                for (slot, &v) in acc_row.iter_mut().zip(bv.iter()) {
                    *slot = vfmaq_f32(*slot, av, v);
                }
            }
        }
        let mut out = [[0f32; NW]; R];
        for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
            for (v, &vec) in acc_row.iter().enumerate() {
                vst1q_f32(out_row.as_mut_ptr().add(v * 4), vec);
            }
        }
        out
    }

    /// # Safety
    /// Requires `neon` at runtime, plus the bounds contract of
    /// [`super::MicroKernel::tile32`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_rx32<const R: usize>(
        ar: &[&[f32]; R],
        idx: &[u32],
        bs: &[f32],
        stride: usize,
        boff: usize,
    ) -> [[f32; NW2]; R] {
        // A fused 4×32 tile would keep 32 q-register accumulators live at
        // once — the whole aarch64 vector file, guaranteeing spills in the
        // hot loop. Run the halves as two *sequential* R×16 passes over
        // the k-block instead (16 live accumulators each at R = 4); the
        // repeated `A` broadcasts cost far less than per-iteration
        // spill/reload traffic would, and the second pass re-reads a
        // `B′` block that the first pass left cache-resident.
        let lo = neon_rx16(ar, idx, bs, stride, boff);
        let hi = neon_rx16(ar, idx, bs, stride, boff + NW);
        let mut out = [[0f32; NW2]; R];
        for ((out_row, lo_row), hi_row) in out.iter_mut().zip(&lo).zip(&hi) {
            out_row[..NW].copy_from_slice(lo_row);
            out_row[NW..].copy_from_slice(hi_row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no external RNG dependency).
    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn tile_inputs(depth: usize, stride: usize, k: usize) -> (Vec<Vec<f32>>, Vec<u32>, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..MW).map(|r| fill(k, 7 + r as u32)).collect();
        let idx: Vec<u32> = (0..depth).map(|u| ((u * 13 + 5) % k) as u32).collect();
        let bs = fill(depth * stride, 99);
        (rows, idx, bs)
    }

    #[test]
    fn name_round_trip_and_unknown_name_rejected() {
        for isa in Isa::ALL {
            assert_eq!(Isa::from_name(isa.name()).unwrap(), isa);
            assert_eq!(Isa::from_name(&isa.name().to_uppercase()).unwrap(), isa);
            assert!(!isa.to_string().is_empty());
        }
        assert!(matches!(
            Isa::from_name("sse9"),
            Err(NmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pinned_ness_tracks_what_select_would_actually_do() {
        let pin = |v: Option<&str>| isa_pin_from(v.map(std::ffi::OsStr::new));
        // Not pins: unset, empty, or native dispatch spelled out in any
        // case — and `select` then really does dispatch natively.
        for value in [
            None,
            Some(""),
            Some("native"),
            Some("NATIVE"),
            Some("Native"),
        ] {
            assert_eq!(pin(value), None, "{value:?}");
            assert_eq!(
                MicroKernel::select_from(pin(value)).unwrap(),
                MicroKernel::native(),
                "{value:?}"
            );
        }
        // Pins: every ISA name, in any case. `select` then resolves that
        // exact ISA, or refuses it when this host cannot run it.
        for isa in Isa::ALL {
            for name in [isa.name().to_string(), isa.name().to_uppercase()] {
                let value = pin(Some(&name));
                assert_eq!(value.as_deref(), Some(name.as_str()));
                match MicroKernel::select_from(value) {
                    Ok(mk) => assert_eq!(mk.isa(), isa, "`{name}`"),
                    Err(e) => {
                        assert!(!isa.supported(), "`{name}` runs here: {e}");
                        assert!(matches!(e, NmError::Unsupported { .. }), "{e}");
                    }
                }
            }
        }
        // Anything else is still a pin, so `select` rejects it loudly
        // instead of treating it as native dispatch.
        for bad in [" native", "native ", "avx", "1", "true"] {
            assert_eq!(pin(Some(bad)).as_deref(), Some(bad));
            match MicroKernel::select_from(pin(Some(bad))) {
                Err(NmError::InvalidConfig { reason }) => {
                    assert!(reason.contains(&format!("{ISA_ENV}=`{bad}`")), "{reason}")
                }
                other => panic!("`{bad}` must be an InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn available_starts_with_scalar_and_contains_the_native_pick() {
        let avail = MicroKernel::available();
        assert_eq!(avail[0].isa(), Isa::Scalar);
        assert!(avail.contains(&MicroKernel::native()));
        // Every advertised kernel really is constructible.
        for mk in &avail {
            assert_eq!(MicroKernel::for_isa(mk.isa()).unwrap(), *mk);
        }
    }

    #[test]
    fn foreign_architecture_isa_is_a_structured_error() {
        #[cfg(target_arch = "x86_64")]
        let foreign = Isa::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Isa::Avx2;
        assert!(!foreign.supported());
        assert!(matches!(
            MicroKernel::for_isa(foreign),
            Err(NmError::Unsupported { .. })
        ));
        // Named through the pin, a foreign ISA is still `Unsupported`,
        // not an unknown name.
        assert!(matches!(
            MicroKernel::select_from(Some(foreign.name().to_string())),
            Err(NmError::Unsupported { .. })
        ));
    }

    #[test]
    fn for_name_native_and_scalar_resolve() {
        // By name, as the pin spells them: `native` is no pin at all, so
        // it dispatches natively; `scalar` resolves the portable tile; an
        // unknown name is refused.
        let native = isa_pin_from(Some(std::ffi::OsStr::new("native")));
        assert_eq!(
            MicroKernel::select_from(native).unwrap(),
            MicroKernel::native()
        );
        assert_eq!(
            MicroKernel::for_isa(Isa::from_name("scalar").unwrap()).unwrap(),
            MicroKernel::scalar()
        );
        assert!(matches!(
            MicroKernel::select_from(Some("riscv-v".to_string())),
            Err(NmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn every_available_kernel_matches_scalar_on_both_widths() {
        let (rows, idx, bs) = tile_inputs(24, 40, 64);
        let ar: [&[f32]; MW] = [&rows[0], &rows[1], &rows[2], &rows[3]];
        let want16 = MicroKernel::scalar().tile16(&ar, &idx, &bs, 40, 3);
        let want32 = MicroKernel::scalar().tile32(&ar, &idx, &bs, 40, 3);
        for mk in MicroKernel::available() {
            let got16 = mk.tile16(&ar, &idx, &bs, 40, 3);
            let got32 = mk.tile32(&ar, &idx, &bs, 40, 3);
            for r in 0..MW {
                for c in 0..NW {
                    assert!(
                        (got16[r][c] - want16[r][c]).abs() <= 1e-4 * want16[r][c].abs() + 1e-5,
                        "{mk} 4x16 [{r}][{c}]: {} vs {}",
                        got16[r][c],
                        want16[r][c]
                    );
                }
                for c in 0..NW2 {
                    assert!(
                        (got32[r][c] - want32[r][c]).abs() <= 1e-4 * want32[r][c].abs() + 1e-5,
                        "{mk} 4x32 [{r}][{c}]: {} vs {}",
                        got32[r][c],
                        want32[r][c]
                    );
                }
            }
        }
    }

    #[test]
    fn empty_index_list_accumulates_nothing() {
        let (rows, _, bs) = tile_inputs(4, 32, 16);
        let ar: [&[f32]; MW] = [&rows[0], &rows[1], &rows[2], &rows[3]];
        for mk in MicroKernel::available() {
            assert_eq!(mk.tile16(&ar, &[], &bs, 32, 0), [[0.0; NW]; MW]);
            assert_eq!(mk.tile32(&ar, &[], &bs, 32, 0), [[0.0; NW2]; MW]);
            assert_eq!(
                mk.tile16(&[&rows[0], &rows[1]], &[], &bs, 32, 0),
                [[0.0; NW]; 2]
            );
            assert_eq!(mk.tile32(&[&rows[0]], &[], &bs, 32, 0), [[0.0; NW2]; 1]);
        }
    }

    #[test]
    fn skinny_tiles_match_the_four_row_tile_row_for_row() {
        // Rows accumulate independently in every implementation, so the
        // 1- and 2-row tiles must reproduce the corresponding rows of the
        // 4-row tile bit for bit — same ISA, same per-row operation order.
        let (rows, idx, bs) = tile_inputs(24, 40, 64);
        let ar4: [&[f32]; MW] = [&rows[0], &rows[1], &rows[2], &rows[3]];
        for mk in MicroKernel::available() {
            let want16 = mk.tile16(&ar4, &idx, &bs, 40, 3);
            let want32 = mk.tile32(&ar4, &idx, &bs, 40, 3);
            let got2x16 = mk.tile16(&[&rows[0], &rows[1]], &idx, &bs, 40, 3);
            let got2x32 = mk.tile32(&[&rows[2], &rows[3]], &idx, &bs, 40, 3);
            let got1x16 = mk.tile16(&[&rows[3]], &idx, &bs, 40, 3);
            let got1x32 = mk.tile32(&[&rows[0]], &idx, &bs, 40, 3);
            assert_eq!(
                [got2x16[0], got2x16[1]],
                [want16[0], want16[1]],
                "{mk} 2x16"
            );
            assert_eq!(
                [got2x32[0], got2x32[1]],
                [want32[2], want32[3]],
                "{mk} 2x32"
            );
            assert_eq!(got1x16[0], want16[3], "{mk} 1x16");
            assert_eq!(got1x32[0], want32[0], "{mk} 1x32");
        }
    }

    #[test]
    fn tall_tile_matches_the_four_row_tile_row_for_row() {
        // The 8-row rung stacks two 4-row tiles' worth of independent
        // rows: each row must come out bit-identical to the 4-row tile's,
        // on every ISA, at both widths.
        let rows: Vec<Vec<f32>> = (0..MW_TALL).map(|r| fill(64, 7 + r as u32)).collect();
        let (_, idx, bs) = tile_inputs(24, 40, 64);
        let ar8: [&[f32]; MW_TALL] = std::array::from_fn(|r| rows[r].as_slice());
        for mk in MicroKernel::available() {
            let got16 = mk.tile16(&ar8, &idx, &bs, 40, 3);
            let got32 = mk.tile32(&ar8, &idx, &bs, 40, 3);
            for half in 0..2 {
                let ar4: [&[f32]; MW] = std::array::from_fn(|r| rows[half * MW + r].as_slice());
                let want16 = mk.tile16(&ar4, &idx, &bs, 40, 3);
                let want32 = mk.tile32(&ar4, &idx, &bs, 40, 3);
                assert_eq!(got16[half * MW..(half + 1) * MW], want16, "{mk} 8x16");
                assert_eq!(got32[half * MW..(half + 1) * MW], want32, "{mk} 8x32");
            }
        }
    }

    #[test]
    fn skinny_tiles_agree_across_isas() {
        let (rows, idx, bs) = tile_inputs(24, 40, 64);
        let scalar = MicroKernel::scalar();
        let want16 = scalar.tile16(&[&rows[0]], &idx, &bs, 40, 3);
        let want32 = scalar.tile32(&[&rows[1], &rows[2]], &idx, &bs, 40, 3);
        for mk in MicroKernel::available() {
            let got16 = mk.tile16(&[&rows[0]], &idx, &bs, 40, 3);
            let got32 = mk.tile32(&[&rows[1], &rows[2]], &idx, &bs, 40, 3);
            for c in 0..NW {
                assert!(
                    (got16[0][c] - want16[0][c]).abs() <= 1e-4 * want16[0][c].abs() + 1e-5,
                    "{mk} 1x16 [{c}]: {} vs {}",
                    got16[0][c],
                    want16[0][c]
                );
            }
            for (r, (got_row, want_row)) in got32.iter().zip(&want32).enumerate() {
                for c in 0..NW2 {
                    assert!(
                        (got_row[c] - want_row[c]).abs() <= 1e-4 * want_row[c].abs() + 1e-5,
                        "{mk} 2x32 [{r}][{c}]: {} vs {}",
                        got_row[c],
                        want_row[c]
                    );
                }
            }
        }
    }
}
