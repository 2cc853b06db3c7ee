//! Native CPU execution of the paper's V1→V3 optimization ladder.
//!
//! The simulated kernels in [`crate::nm`] model the CUDA ladder; this module
//! *runs* the same three optimization steps on the host, over the identical
//! offset-compressed [`NmSparseMatrix`] representation:
//!
//! * **V1 — hierarchical blocking** ([`NmVersion::V1`]): `mb×nb×kb` cache
//!   blocking around a register micro-kernel. `B′` is staged once into a
//!   block-contiguous layout (the CPU analogue of the paper's
//!   `transformLayout` + shared-memory `Bs` tile): each `(k-block,
//!   column-block)` pair becomes one dense `ub×nb` panel the inner loop
//!   streams sequentially. Full 16- (or 32-) float window chunks run
//!   through an explicitly vectorized register micro-tile
//!   ([`crate::simd::MicroKernel`] — AVX2/AVX-512/NEON selected once at
//!   preparation time, scalar fallback elsewhere) via a 4→2→1 row ladder,
//!   so skinny decode panels (1–3 rows, including `m = 1` SpMV) stay
//!   vectorized; ragged column windows take a general scalar path.
//! * **V2 — sparsity-aware classification** ([`NmVersion::V2`]): the
//!   paper packs the window-union columns of `A` through `col_info`
//!   (§III-C1) to save GPU shared-memory and global traffic. On the CPU
//!   the k-block of `A` a block reads is already cache-resident, so V2
//!   gathers `A` in place exactly as V1 does; what it keeps of the packed
//!   path is the block classification. Above the 70% sparsity threshold
//!   every window-aligned block runs the micro-tiles, reading the padded
//!   tail of the final window (`k` not a multiple of `M`) as zeros from a
//!   zero-padded copy of `A` — the 0.0 the packed panel held. The paper's
//!   packing lives on in the simulator ([`crate::nm`]) and the WGSL
//!   codegen.
//! * **V3 — parallelism** ([`NmVersion::V3`]): V2 with rayon parallelism
//!   over rows or columns, as the paper's kernels launch a 2-D grid of
//!   row and column tiles. The parts run on the rayon pool's persistent
//!   workers, so a call pays a hand-off to running threads, not a thread
//!   spawn. A call with at least one `mb`-row panel per worker runs one
//!   panel per task. A call with fewer panels than workers (a decode
//!   call, `m ≤ 8`) instead splits the staged `B′` into contiguous column
//!   ranges — row-major column blocks or SELL-C-σ slices — one per
//!   worker, or one per unit when the staging has fewer units than
//!   workers. Each worker fills a private buffer for its columns and the
//!   caller copies the owned columns into `C`, so every element sees the
//!   same `+=` sequence and V3 stays bit-identical to V1/V2. The paper's
//!   V3 pipeline (§III-C2) double-buffers shared-memory staging; with
//!   nothing staged online there is nothing for the CPU to double-buffer.
//!
//! Tile sizes are not invented here: [`CpuTiling::derive`] maps a
//! [`Plan`]'s auto-tuned [`BlockingParams`] onto the CPU
//! (`mb = ms`, `nb = ns`, `mt = mt`), so the planner's blocking decision
//! drives both backends. A blocking that cannot drive the CPU tiles (e.g.
//! `ns` not a multiple of the vector length `L`, possible when the autotuner
//! fell back to the `Para_Init_Table` preset) is a structured
//! [`NmError::InvalidBlocking`], never a panic.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::pattern::{NmConfig, SparsityClass};
use nm_core::sliced::{SlicedLayout, SlicedMatrix, StorageFormat};
use nm_core::sparse::NmSparseMatrix;
use rayon::prelude::*;
use std::ops::Range;

use crate::nm::NmVersion;
use crate::params::BlockingParams;
use crate::plan::Plan;
use crate::simd::{Isa, MicroKernel, MW, NW, NW2};

/// Cache-capacity target for one staged `B′` block (`ub × nb` floats): the
/// k-depth [`CpuTiling::derive`] picks keeps the block within this many
/// bytes so it survives in cache across the panel's row tiles.
const B_BLOCK_BYTES: usize = 64 * 1024;

/// Whether the paper packs `A` for `cfg` — exactly its §III-A rule:
/// sparsity at or above [`nm_core::pattern::SPARSITY_THRESHOLD`] (70%)
/// packs, below it the direct gather is cheaper than the staging it would
/// save. The CPU ladder gathers in place either way; this decides its
/// V2/V3 fast/general block classification.
#[inline]
pub fn uses_packing(cfg: NmConfig) -> bool {
    cfg.class() == SparsityClass::High
}

/// Whether a `version` preparation of `cfg` classifies blocks as the
/// paper's packed path would (V2/V3 at high sparsity): every block of
/// whole, 16-divisible windows runs the vectorized micro-tiles, even where
/// its gathers reach the zero-padded tail of `A`. The row-major walk, the
/// sliced staging and the codegen backend all key on this one predicate,
/// so they pick FMA versus zero-skipping mul-add on the same blocks.
#[inline]
pub(crate) fn packed_class(version: NmVersion, cfg: NmConfig) -> bool {
    version != NmVersion::V1 && uses_packing(cfg)
}

/// CPU tile sizes for one problem, derived from a plan's auto-tuned
/// blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTiling {
    /// Rows of `C` per panel (the unit of V3 parallelism); from `ms`.
    pub mb: usize,
    /// Columns of `C` per block, a multiple of `L`; from `ns`.
    pub nb: usize,
    /// Dense k-depth per block, a multiple of `M`; sized to keep one
    /// staged `B′` block within the cache-capacity budget
    /// (`B_BLOCK_BYTES`).
    pub kb: usize,
    /// Rows per general-path register tile (the fast path uses the 4→2→1
    /// row ladder of vectorized micro-tiles); from `mt`.
    pub mt: usize,
}

impl CpuTiling {
    /// Map auto-tuned GPU blocking onto CPU tiles for a `k`-deep problem.
    ///
    /// Fails with [`NmError::InvalidBlocking`] when the blocking cannot
    /// drive the CPU tiles (zero tile sizes, or `ns` not a multiple of the
    /// vector length `L` — the window-alignment the column blocks require).
    pub fn derive(params: BlockingParams, cfg: NmConfig, k: usize) -> Result<Self> {
        if params.ms == 0 || params.ns == 0 || params.mt == 0 {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "CPU tiles need positive ms/ns/mt (got {}x{}, mt={})",
                    params.ms, params.ns, params.mt
                ),
            });
        }
        if !params.ns.is_multiple_of(cfg.l) {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "ns={} cannot drive the CPU column block: \
                     not a multiple of the vector length L={}",
                    params.ns, cfg.l
                ),
            });
        }
        let k_pad = k.max(1).div_ceil(cfg.m) * cfg.m;
        // Compressed rows that fit the B-block budget, at least one window.
        let ub = (B_BLOCK_BYTES / 4 / params.ns).max(cfg.n);
        let windows = (ub / cfg.n).max(1);
        let kb = (windows * cfg.m).min(k_pad);
        Ok(Self {
            mb: params.ms,
            nb: params.ns,
            kb,
            mt: params.mt,
        })
    }

    /// Tiling from the `Para_Init_Table` preset for callers without a plan.
    pub fn auto(cfg: NmConfig, m: usize, n: usize, k: usize) -> Result<Self> {
        let mut params = BlockingParams::para_init_table(m, n);
        // The preset's ns may not be window-aligned for exotic L; widen to
        // the least common multiple so `derive` cannot reject it.
        if !params.ns.is_multiple_of(cfg.l) {
            params.ns = lcm(params.ns, cfg.l);
        }
        Self::derive(params, cfg, k)
    }
}

thread_local! {
    /// See [`offline_staging_passes`].
    static STAGING_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Staging-cost probe: how many offline preparations ([`CpuPrepared`]
/// constructions — `B′` block staging) the **current thread** has run
/// since it started.
///
/// This exists so callers can *prove* the prepare-once contract rather
/// than trust it: read the counter, call
/// [`forward`](crate::session::PreparedLayer::forward) as often as you
/// like, read it again — an unchanged count demonstrates that no hidden
/// re-staging happened on the calling thread. The counter is thread-local
/// (preparation always runs on the caller's thread) so concurrent tests
/// cannot disturb each other's readings; the increment is one
/// thread-local add per preparation, noise next to the staging itself.
pub fn offline_staging_passes() -> u64 {
    STAGING_PASSES.with(|c| c.get())
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

/// The offline pre-processing product for one `(B′, tiling, version)`
/// combination: validated tile geometry and the `B′` staging — the
/// block-contiguous `transformLayout` panels or the SELL-C-σ slices.
///
/// Everything in here depends only on the *weights* (`sb`) and the tiling,
/// never on the activations `A`, so it is built once and amortized across
/// executions — exactly the paper's offline step.
/// [`CpuBackend`](crate::backend::CpuBackend) prepares outside its
/// wall-clock window so measured times cover the online kernel only; the
/// zero-padded copy of `A` a ragged depth (`k` not a multiple of `M`)
/// needs stays inside the timed loop because it genuinely is online work.
pub struct CpuPrepared {
    version: NmVersion,
    tiling: CpuTiling,
    /// The micro-kernel selected for this preparation — runtime ISA
    /// detection happens exactly once, here, never inside the hot loop.
    kernel: MicroKernel,
    /// Shape/config fingerprint of the operand this was prepared for.
    /// `(cfg, w, n, k)` catches shape and sparsity-pattern-class mixups;
    /// `content_fp` additionally samples the values and indices so a
    /// *different* matrix with identical shape and config is rejected
    /// too, instead of silently gathering against the wrong staging.
    cfg: NmConfig,
    w: usize,
    n: usize,
    k: usize,
    content_fp: u64,
    staged: StagedFormat,
}

/// Which staging a preparation carries — the kernel-side face of
/// [`StorageFormat`]. The row-major arm is the existing
/// `transformLayout` product, untouched; the sliced arm gathers through
/// pre-resolved absolute indices and needs no per-call index
/// reconstruction.
enum StagedFormat {
    /// Block-contiguous `B′` panels (the paper's layout).
    RowMajor(StagedB),
    /// SELL-C-σ slice panels with absolute gather indices.
    Sliced(StagedSliced),
}

/// FNV-1a over a bounded strided sample of `B′` values and `D` indices —
/// ≤128 probes however large the matrix, so verifying it per call is
/// noise next to the multiply, yet a same-shape-same-config *different*
/// matrix collides only if the sampled entries all agree bit for bit.
fn content_fingerprint(sb: &NmSparseMatrix) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    let values = sb.values();
    let d = sb.indices();
    let (w, n, q) = (sb.w(), sb.cols(), sb.q());
    if w == 0 || n == 0 {
        return h;
    }
    let samples = 64usize;
    for s in 0..samples {
        // Deterministic stride over the (w × n) value grid.
        let u = s * w / samples;
        let j = (s * 31) % n;
        mix(values.row(u)[j].to_bits() as u64);
        if q > 0 {
            mix(d.get(u, (s * 7) % q) as u64);
        }
    }
    h
}

impl CpuPrepared {
    /// Validate `tiling` against `sb` and run the offline staging, with
    /// the micro-kernel chosen by [`MicroKernel::select`] (widest ISA the
    /// host supports, honoring the `NM_SPMM_ISA` / `NM_SPMM_FORCE_SCALAR`
    /// environment overrides).
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the tiling is not window-aligned
    /// for `sb`'s configuration, and [`NmError::Unsupported`] when an
    /// environment override requests an ISA this host cannot execute.
    pub fn new(version: NmVersion, sb: &NmSparseMatrix, tiling: CpuTiling) -> Result<Self> {
        Self::with_kernel(version, sb, tiling, MicroKernel::select()?)
    }

    /// As [`CpuPrepared::new`] but staging `sb` in an explicit
    /// [`StorageFormat`] — the planner/autotuner entry point for the
    /// sliced layout.
    ///
    /// # Errors
    /// As [`CpuPrepared::new`], plus [`NmError::InvalidConfig`] for an
    /// invalid sliced parameterization.
    pub fn new_with_format(
        version: NmVersion,
        sb: &NmSparseMatrix,
        tiling: CpuTiling,
        format: StorageFormat,
    ) -> Result<Self> {
        Self::with_format(version, sb, tiling, MicroKernel::select()?, format)
    }

    /// As [`CpuPrepared::new`] but with an explicit micro-kernel — the
    /// hook the parity suites use to A/B every compiled ISA on one host.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the tiling is not window-aligned
    /// for `sb`'s configuration.
    pub fn with_kernel(
        version: NmVersion,
        sb: &NmSparseMatrix,
        tiling: CpuTiling,
        kernel: MicroKernel,
    ) -> Result<Self> {
        Self::with_format(version, sb, tiling, kernel, StorageFormat::RowMajor)
    }

    /// The fully explicit constructor: micro-kernel *and* storage format.
    /// Row-major runs the existing `transformLayout` staging; a
    /// sliced format builds the SELL-C-σ panels instead and replicates the
    /// row-major block classification per window, so both stagings execute
    /// the same arithmetic in the same order — bit-identical results.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the tiling is not window-aligned
    /// for `sb`'s configuration; [`NmError::InvalidConfig`] for an invalid
    /// sliced parameterization.
    pub fn with_format(
        version: NmVersion,
        sb: &NmSparseMatrix,
        tiling: CpuTiling,
        kernel: MicroKernel,
        format: StorageFormat,
    ) -> Result<Self> {
        let cfg = sb.cfg();
        if tiling.mb == 0 || tiling.mt == 0 {
            return Err(NmError::InvalidBlocking {
                reason: format!("mb={} and mt={} must be positive", tiling.mb, tiling.mt),
            });
        }
        if tiling.nb == 0 || !tiling.nb.is_multiple_of(cfg.l) {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "nb={} must be a positive multiple of L={}",
                    tiling.nb, cfg.l
                ),
            });
        }
        if tiling.kb == 0 || !tiling.kb.is_multiple_of(cfg.m) {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "kb={} must be a positive multiple of M={}",
                    tiling.kb, cfg.m
                ),
            });
        }
        STAGING_PASSES.with(|c| c.set(c.get() + 1));
        let (k, n) = (sb.k(), sb.cols());
        // Effective block geometry, clamped to the (padded) problem so the
        // staging never builds blocks larger than the matrix.
        let kb = tiling.kb.min(k.max(1).div_ceil(cfg.m) * cfg.m);
        let nb = tiling.nb.min(n.max(1).div_ceil(cfg.l) * cfg.l);
        let tiling = CpuTiling { kb, nb, ..tiling };

        // Stage B′ once, in the requested format.
        let staged = match format {
            // transformLayout: stage B′ into block-contiguous panels.
            StorageFormat::RowMajor => StagedFormat::RowMajor(StagedB::build(sb, nb, kb)),
            StorageFormat::Sliced(layout) => StagedFormat::Sliced(StagedSliced::build(
                sb,
                nb,
                kb,
                packed_class(version, cfg),
                layout,
            )?),
        };
        Ok(Self {
            version,
            tiling,
            kernel,
            cfg,
            w: sb.w(),
            n,
            k,
            content_fp: content_fingerprint(sb),
            staged,
        })
    }

    /// The CPU and codegen backends' offline step: prepare `sb` for a
    /// `version` run of `plan`. Measurement times V3 only, so only a V3
    /// preparation takes the plan's measured tiling (when window-aligned
    /// for these weights) and storage format; otherwise the tiling is
    /// [`CpuTiling::derive`]d and the format is the key's lane. `kernel`
    /// pins the micro-kernel; `None` runs [`MicroKernel::select`].
    pub(crate) fn for_plan(
        version: NmVersion,
        plan: &Plan,
        sb: &NmSparseMatrix,
        kernel: Option<MicroKernel>,
    ) -> Result<Self> {
        let cfg = sb.cfg();
        let measured = plan.measured.filter(|_| version == NmVersion::V3);
        let tiling = match measured.map(|m| m.cpu_tiling) {
            Some(t) if t.nb.is_multiple_of(cfg.l) && t.kb.is_multiple_of(cfg.m) => t,
            _ => CpuTiling::derive(plan.params, cfg, sb.k())?,
        };
        let format = measured.map_or(plan.key.storage, |m| m.storage);
        let kernel = kernel.map_or_else(MicroKernel::select, Ok)?;
        Self::with_format(version, sb, tiling, kernel, format)
    }

    /// The ladder step this preparation serves.
    pub fn version(&self) -> NmVersion {
        self.version
    }

    /// The effective (clamped) tile geometry.
    pub fn tiling(&self) -> CpuTiling {
        self.tiling
    }

    /// The instruction set the selected micro-kernel executes — what
    /// [`ExecRun`](crate::backend::ExecRun) and `BENCH_pr.json` record.
    pub fn isa(&self) -> Isa {
        self.kernel.isa()
    }

    /// The selected micro-kernel.
    pub fn kernel(&self) -> MicroKernel {
        self.kernel
    }

    /// The storage format this preparation staged `B′` in.
    pub fn format(&self) -> StorageFormat {
        match &self.staged {
            StagedFormat::RowMajor(_) => StorageFormat::RowMajor,
            StagedFormat::Sliced(ss) => StorageFormat::Sliced(ss.sm.layout()),
        }
    }

    /// The row-major staging's block geometry `(nb, jblocks, kblocks)`,
    /// or `None` for a sliced preparation. The codegen backend lowers its
    /// kernel grid from exactly these numbers so the generated shader
    /// walks the same blocks the CPU kernel does.
    pub(crate) fn rowmajor_geometry(&self) -> Option<(usize, usize, usize)> {
        match &self.staged {
            StagedFormat::RowMajor(s) => Some((s.nb, s.jblocks, s.kblocks)),
            StagedFormat::Sliced(_) => None,
        }
    }

    /// The sliced staging's parts `(matrix, fast flags, kblocks)`,
    /// or `None` for a row-major preparation. The fast flags are the
    /// op-flavor map, `fast[pos * kblocks + bk]` over permuted window
    /// positions — the codegen backend re-uses them verbatim as its
    /// per-span selector table.
    pub(crate) fn sliced_parts(&self) -> Option<(&SlicedMatrix, &[bool], usize)> {
        match &self.staged {
            StagedFormat::RowMajor(_) => None,
            StagedFormat::Sliced(ss) => Some((&ss.sm, &ss.fast, ss.kblocks)),
        }
    }

    /// How many contiguous column ranges a call with `m` rows splits
    /// into: 1 (the row panels) unless this is V3 and the call has fewer
    /// `mb`-row panels than rayon workers; then one range per worker, but
    /// never more ranges than the staging has units (column blocks or
    /// slices).
    fn column_parts(&self, m: usize) -> usize {
        if self.version != NmVersion::V3 {
            return 1;
        }
        let workers = rayon::current_num_threads();
        if m.div_ceil(self.tiling.mb) >= workers {
            return 1;
        }
        let units = match &self.staged {
            StagedFormat::RowMajor(s) => s.jblocks,
            StagedFormat::Sliced(ss) => ss.sm.slices(),
        };
        workers.min(units).max(1)
    }

    /// Reject an operand this preparation was not staged from: shape or
    /// config disagreement, or a *different* matrix with identical shape
    /// and config (bounded content-fingerprint sample). Shared by every
    /// execution path that accepts `(operand, preparation)` pairs.
    pub(crate) fn validate_operand(&self, sb: &NmSparseMatrix) -> Result<()> {
        if (self.cfg, self.w, self.n, self.k) != (sb.cfg(), sb.w(), sb.cols(), sb.k()) {
            return Err(NmError::DimensionMismatch {
                expected: format!(
                    "the {}x{} {} operand prepared for",
                    self.k, self.n, self.cfg
                ),
                found: format!("B′ for a {}x{} {} matrix", sb.k(), sb.cols(), sb.cfg()),
            });
        }
        if self.content_fp != content_fingerprint(sb) {
            return Err(NmError::DimensionMismatch {
                expected: "the same B′ this preparation was staged from".into(),
                found: "a different matrix with identical shape and config \
                        (content fingerprint mismatch)"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Execute `C = A ⊛ (B′, D)` natively on the CPU at the given ladder step.
///
/// All three versions produce the same matrix (they differ only in data
/// movement); each matches [`nm_core::spmm::spmm_reference`] up to
/// reduction order. This convenience wrapper runs the offline step
/// ([`CpuPrepared::new`]) and the online kernel back to back; callers that
/// execute the same `B′` repeatedly (or that time the kernel) should
/// prepare once and call [`spmm_cpu_prepared`].
///
/// # Errors
/// [`NmError::DimensionMismatch`] when `a.cols() != sb.k()`,
/// [`NmError::InvalidBlocking`] when `tiling` is not window-aligned for
/// `sb`'s configuration, and [`NmError::Unsupported`] when an environment
/// override requests an ISA this host cannot execute.
pub fn spmm_cpu(
    version: NmVersion,
    a: &MatrixF32,
    sb: &NmSparseMatrix,
    tiling: CpuTiling,
) -> Result<MatrixF32> {
    let prep = CpuPrepared::new(version, sb, tiling)?;
    spmm_cpu_prepared(a, sb, &prep)
}

/// The online kernel: execute against a pre-built [`CpuPrepared`]
/// (amortizing the offline staging across calls, as inference serving
/// would).
///
/// # Errors
/// [`NmError::DimensionMismatch`] when `a.cols() != sb.k()`, when `sb`'s
/// shape/config disagrees with what `prep` was prepared from, or when a
/// *different* matrix with identical shape and config is substituted (a
/// bounded content-fingerprint sample catches the swap instead of letting
/// the kernel gather against the wrong staging).
pub fn spmm_cpu_prepared(
    a: &MatrixF32,
    sb: &NmSparseMatrix,
    prep: &CpuPrepared,
) -> Result<MatrixF32> {
    let (m, k) = a.shape();
    if k != sb.k() {
        return Err(NmError::DimensionMismatch {
            expected: format!("A with k = {}", sb.k()),
            found: format!("A is {m} x {k}"),
        });
    }
    prep.validate_operand(sb)?;

    let n = sb.cols();
    let mut c = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(c);
    }
    // A panel never holds more than `m` rows, so this clamp changes no
    // arithmetic; it bounds `mb × n` even for a doctored cached tiling.
    let tiling = CpuTiling {
        mb: prep.tiling.mb.min(m),
        ..prep.tiling
    };
    let mk = prep.kernel;
    // Gather indices of the final window may legitimately reach the padded
    // tail `[k, k_pad)`; both stagings gather those from a zero-padded copy
    // of A, so every gather — fast or general — is a plain in-bounds load.
    let k_pad = k.div_ceil(prep.cfg.m) * prep.cfg.m;
    let padded = zero_padded(a, k_pad);
    let (xa, xk) = match &padded {
        Some(p) => (p.as_slice(), k_pad),
        None => (a.as_slice(), k),
    };

    let parts = prep.column_parts(m);
    match &prep.staged {
        StagedFormat::RowMajor(staged) => {
            let packed = packed_class(prep.version, prep.cfg);
            let panel = |i0: usize, jbis: Range<usize>, c_panel: &mut [f32]| {
                let source = RowSource {
                    a: xa,
                    stride: xk,
                    i0,
                };
                run_panel(&source, k, sb, &tiling, staged, mk, packed, jbis, c_panel);
            };
            let all = 0..staged.jblocks;
            if parts > 1 {
                // V3 with fewer row panels than workers: each worker takes
                // a run of column blocks through every row panel.
                let ranges = even_ranges(staged.jblocks, parts);
                let owned: Vec<_> = ranges
                    .iter()
                    .map(|r| vec![(r.start * staged.nb, (r.end * staged.nb).min(n))])
                    .collect();
                split_columns(c.as_mut_slice(), n, &owned, |p, buf| {
                    for (pi, c_panel) in buf.chunks_mut(tiling.mb * n).enumerate() {
                        panel(pi * tiling.mb, ranges[p].clone(), c_panel);
                    }
                });
            } else if prep.version == NmVersion::V3 {
                // V3: rayon row panels (each owns its scratch).
                c.as_mut_slice()
                    .par_chunks_mut(tiling.mb * n)
                    .enumerate()
                    .for_each(|(p, c_panel)| panel(p * tiling.mb, all.clone(), c_panel));
            } else {
                // V1/V2: sequential panels (the ladder adds parallelism
                // only at V3).
                for (p, c_panel) in c.as_mut_slice().chunks_mut(tiling.mb * n).enumerate() {
                    panel(p * tiling.mb, all.clone(), c_panel);
                }
            }
        }
        StagedFormat::Sliced(ss) => {
            let l = prep.cfg.l;
            let sm = &ss.sm;
            // Rows `i0..` of the call into `c`, over the slices `slices`.
            let rows = |i0: usize, slices: Range<usize>, c: &mut [f32]| {
                let mut acc = vec![0f32; l];
                for (i, y) in c.chunks_mut(n).enumerate() {
                    let x = &xa[(i0 + i) * xk..(i0 + i + 1) * xk];
                    run_sliced_row(x, ss, mk, l, slices.clone(), &mut acc, y);
                }
            };
            if parts > 1 {
                // V3 with fewer row panels than workers: each worker takes
                // a run of slices; it owns their windows' column spans.
                let ranges = even_ranges(sm.slices(), parts);
                let owned: Vec<_> = ranges
                    .iter()
                    .map(|r| {
                        r.clone()
                            .flat_map(|s| sm.slice_windows(s))
                            .map(|pos| {
                                let (col, lw) = sm.span(pos);
                                (col, col + lw)
                            })
                            .collect()
                    })
                    .collect();
                split_columns(c.as_mut_slice(), n, &owned, |p, buf| {
                    rows(0, ranges[p].clone(), buf)
                });
            } else if prep.version == NmVersion::V3 {
                // V3: output rows are bit-independent, so the sliced path
                // parallelizes per row.
                c.as_mut_slice()
                    .par_chunks_mut(n)
                    .enumerate()
                    .for_each(|(i, y)| rows(i, 0..sm.slices(), y));
            } else {
                rows(0, 0..sm.slices(), c.as_mut_slice());
            }
        }
    }
    Ok(c)
}

/// `0..units` cut into `parts` contiguous, near-equal ranges.
fn even_ranges(units: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|p| p * units / parts..(p + 1) * units / parts)
        .collect()
}

/// V3's column split: part `p` runs `fill(p, buf)` on its own worker into
/// a zeroed private `m × n` buffer, then the caller copies the part's
/// owned column spans `owned[p]` (half-open, every row) into `c`. The
/// spans partition `0..n` and each part writes only its own, so every
/// element of `c` holds exactly the `+=` sequence an unsplit run gives it.
fn split_columns<F>(c: &mut [f32], n: usize, owned: &[Vec<(usize, usize)>], fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    #[cfg(test)]
    instrument::COLUMN_SPLITS.with(|s| s.set(s.get() + 1));
    let len = c.len();
    let bufs: Vec<Vec<f32>> = (0..owned.len())
        .into_par_iter()
        .map(|p| {
            let mut buf = vec![0f32; len];
            fill(p, &mut buf);
            buf
        })
        .collect();
    for (spans, buf) in owned.iter().zip(&bufs) {
        for (dst, src) in c.chunks_mut(n).zip(buf.chunks(n)) {
            for &(lo, hi) in spans {
                dst[lo..hi].copy_from_slice(&src[lo..hi]);
            }
        }
    }
}

/// `A`'s rows zero-padded from `k` to `k_pad` columns, or `None` when
/// `k_pad == k` (`k` already a multiple of `M`). A gather index into the
/// padded tail of the final window then loads the 0.0 the paper's packed
/// panel held there, so the micro-tiles serve such blocks unchanged.
fn zero_padded(a: &MatrixF32, k_pad: usize) -> Option<Vec<f32>> {
    let (m, k) = a.shape();
    if k_pad == k {
        return None;
    }
    let mut p = vec![0f32; m * k_pad];
    for (dst, src) in p.chunks_mut(k_pad).zip(a.as_slice().chunks(k)) {
        dst[..k].copy_from_slice(src);
    }
    Some(p)
}

/// Prepared sparse matrix–vector product: `y = x ⊛ B′` through the same
/// [`CpuPrepared`] staging the matrix path uses — the decode (`m = 1`)
/// entry point of the ladder. The vector is viewed as a `1 × k` operand
/// and runs the 1-row rung of the fast-path ladder; no extra staging or
/// copies beyond the `1 × k` view are made, so a preparation built for
/// prefill serves decode for free.
///
/// # Errors
/// [`NmError::DimensionMismatch`] when `x.len() != sb.k()` or when `sb`
/// disagrees with what `prep` was prepared from (shape, config, or
/// content fingerprint) — the same contract as [`spmm_cpu_prepared`].
pub fn spmv_cpu_prepared(x: &[f32], sb: &NmSparseMatrix, prep: &CpuPrepared) -> Result<Vec<f32>> {
    if x.len() != sb.k() {
        return Err(NmError::DimensionMismatch {
            expected: format!("x of length k = {}", sb.k()),
            found: format!("x of length {}", x.len()),
        });
    }
    let a = MatrixF32::from_vec(1, x.len(), x.to_vec());
    spmm_cpu_prepared(&a, sb, prep).map(MatrixF32::into_vec)
}

/// `B′` re-laid out block-contiguously: one dense `ub_act × nbw` row-major
/// panel per `(column-block, k-block)` pair — the paper's `transformLayout`
/// plus the shared-memory `Bs` tile, materialized once per call and shared
/// read-only by every row panel.
struct StagedB {
    data: Vec<f32>,
    offs: Vec<usize>,
    /// Column-block width (multiple of `L`).
    nb: usize,
    /// Compressed rows per k-block.
    ub: usize,
    jblocks: usize,
    kblocks: usize,
}

impl StagedB {
    fn build(sb: &NmSparseMatrix, nb: usize, kb: usize) -> Self {
        let cfg = sb.cfg();
        let (w, n) = (sb.w(), sb.cols());
        let ub = kb * cfg.n / cfg.m;
        let jblocks = n.div_ceil(nb);
        let kblocks = w.div_ceil(ub);
        let values = sb.values();
        let mut data = Vec::with_capacity(w * n);
        let mut offs = Vec::with_capacity(jblocks * kblocks + 1);
        for jbi in 0..jblocks {
            let jb = jbi * nb;
            let jb_hi = (jb + nb).min(n);
            for bk in 0..kblocks {
                offs.push(data.len());
                let u_lo = bk * ub;
                let u_hi = ((bk + 1) * ub).min(w);
                for u in u_lo..u_hi {
                    data.extend_from_slice(&values.row(u)[jb..jb_hi]);
                }
            }
        }
        offs.push(data.len());
        Self {
            data,
            offs,
            nb,
            ub,
            jblocks,
            kblocks,
        }
    }

    /// The contiguous panel for `(column-block jbi, bk)`.
    #[inline]
    fn block(&self, jbi: usize, bk: usize) -> &[f32] {
        let i = jbi * self.kblocks + bk;
        &self.data[self.offs[i]..self.offs[i + 1]]
    }
}

/// The SELL-C-σ staging: the built [`SlicedMatrix`] plus the *op-flavor
/// map* that makes the sliced path bit-identical to the row-major one.
///
/// Every `(window, k-block)` pair is classified exactly as the row-major
/// twin staging would classify the block containing it — vectorized
/// micro-tile versus general mul-add-with-zero-skip — because the two
/// flavors round differently (FMA versus separate multiply/add) and the
/// general path skips zero operands. Replicating the classification at
/// staging time, from the same clamped tile geometry, means the sliced
/// kernel performs the same floating-point operations on the same values
/// in the same per-element order.
struct StagedSliced {
    sm: SlicedMatrix,
    /// Compressed rows per k-block (same formula as the row-major twin).
    ub: usize,
    kblocks: usize,
    /// Fast flag per `(permuted window position, k-block)`,
    /// `fast[pos * kblocks + bk]`.
    fast: Vec<bool>,
}

impl StagedSliced {
    /// Build the sliced staging for the clamped block geometry
    /// `(nb, kb)`. `twin_packed` is the row-major twin's
    /// [`packed_class`], which widens its fast classification.
    fn build(
        sb: &NmSparseMatrix,
        nb: usize,
        kb: usize,
        twin_packed: bool,
        layout: SlicedLayout,
    ) -> Result<Self> {
        let cfg = sb.cfg();
        let (w, q) = (sb.w(), sb.q());
        let sm = SlicedMatrix::build(sb, layout)?;
        let ub = kb * cfg.n / cfg.m;
        let kblocks = w.div_ceil(ub);
        let fast_old = rowmajor_fast_flags(sb, nb, kb, twin_packed);
        // Re-index the flags to permuted window positions.
        let fast = (0..q)
            .flat_map(|pos| {
                let old = sm.perm().perm[pos];
                fast_old[old * kblocks..(old + 1) * kblocks].to_vec()
            })
            .collect();
        Ok(Self {
            sm,
            ub,
            kblocks,
            fast,
        })
    }
}

/// The row-major panel walk's fast/general classification, flattened to
/// `(window, k-block)` pairs: `fast[j * kblocks + bk]` over the staging
/// geometry `(nb, kb)`. A block runs the vectorized micro-tiles when the
/// window length is a multiple of the 16-float tile, the column block
/// holds no partial window, and every gather stays inside the dense depth
/// `k` — a bound the [`packed_class`] (`packed`) waives, since it gathers
/// the padded tail as zeros. This is the predicate `run_panel` evaluates
/// per block; the sliced staging and the codegen backend replay it so all
/// three choose FMA versus zero-skipping mul-add on the same windows.
pub(crate) fn rowmajor_fast_flags(
    sb: &NmSparseMatrix,
    nb: usize,
    kb: usize,
    packed: bool,
) -> Vec<bool> {
    let cfg = sb.cfg();
    let (w, n, q, k) = (sb.w(), sb.cols(), sb.q(), sb.k());
    let ub = kb * cfg.n / cfg.m;
    let jblocks = n.div_ceil(nb);
    let kblocks = w.div_ceil(ub);
    let d = sb.indices();
    let mut fast = vec![false; q * kblocks];
    if !cfg.l.is_multiple_of(NW) {
        return fast;
    }
    for jbi in 0..jblocks {
        let jb = jbi * nb;
        let jb_hi = (jb + nb).min(n);
        if !(jb_hi - jb).is_multiple_of(cfg.l) {
            continue;
        }
        let j_lo = jb / cfg.l;
        let j_hi = jb_hi.div_ceil(cfg.l).min(q);
        for bk in 0..kblocks {
            let u_lo = bk * ub;
            let u_hi = ((bk + 1) * ub).min(w);
            let in_bounds = packed
                || (bk + 1) * kb <= k
                || (j_lo..j_hi)
                    .all(|j| (u_lo..u_hi).all(|u| u / cfg.n * cfg.m + (d.get(u, j) as usize) < k));
            if in_bounds {
                for j in j_lo..j_hi {
                    fast[j * kblocks + bk] = true;
                }
            }
        }
    }
    fast
}

/// One output row through the sliced staging: `y += x ⊛ slices`, over
/// the slices `slices` (every slice unless V3 split the call).
///
/// `x` must already be zero-padded to `k_pad` when the padded final
/// window is reachable (the caller handles this once per call). Fast
/// windows run the same register micro-tiles as the row-major path over
/// the pre-resolved absolute indices — no per-call index reconstruction;
/// general windows replicate the row-major general path's zeroed
/// accumulator and zero-operand skip. Write-back lands at each window's
/// original column span, so the permutation never escapes.
fn run_sliced_row(
    x: &[f32],
    ss: &StagedSliced,
    mk: MicroKernel,
    l: usize,
    slices: Range<usize>,
    acc_scratch: &mut [f32],
    y: &mut [f32],
) {
    let sm = &ss.sm;
    let w = sm.w();
    let wide = l.is_multiple_of(NW2);
    let ar = [x];
    for s in slices {
        let width = sm.width(s);
        let vals = sm.value_panel(s);
        for bk in 0..ss.kblocks {
            let u_lo = bk * ss.ub;
            let u_hi = ((bk + 1) * ss.ub).min(w);
            let panel = &vals[u_lo * width..u_hi * width];
            let mut col_off = 0usize;
            for (wi, pos) in sm.slice_windows(s).enumerate() {
                let (col, lw) = sm.span(pos);
                let idx = sm.gather_span(s, wi, u_lo, u_hi);
                if ss.fast[pos * ss.kblocks + bk] {
                    #[cfg(test)]
                    instrument::SLICED_FAST.with(|c| c.set(c.get() + 1));
                    if wide {
                        for off in (0..l).step_by(NW2) {
                            let acc = mk.tile32(&ar, idx, panel, width, col_off + off);
                            for (out, add) in y[col + off..col + off + NW2].iter_mut().zip(&acc[0])
                            {
                                *out += add;
                            }
                        }
                    } else {
                        for off in (0..l).step_by(NW) {
                            let acc = mk.tile16(&ar, idx, panel, width, col_off + off);
                            for (out, add) in y[col + off..col + off + NW].iter_mut().zip(&acc[0]) {
                                *out += add;
                            }
                        }
                    }
                } else {
                    let acc = &mut acc_scratch[..lw];
                    acc.fill(0.0);
                    for (ui, &si) in idx.iter().enumerate() {
                        let alpha = x[si as usize];
                        if alpha != 0.0 {
                            let at = ui * width + col_off;
                            for (out, bv) in acc.iter_mut().zip(&panel[at..at + lw]) {
                                *out += alpha * bv;
                            }
                        }
                    }
                    for (out, add) in y[col..col + lw].iter_mut().zip(&acc[..]) {
                        *out += add;
                    }
                }
                col_off += lw;
            }
        }
    }
}

/// Where the micro-kernel gathers its `A` operands from: the dense `A`
/// rows in place — the caller's matrix, or its zero-padded copy when `k`
/// is not a multiple of `M`.
struct RowSource<'a> {
    a: &'a [f32],
    /// Row stride of `a`: `k` rounded up to the window depth `M`, the
    /// exclusive bound a gather index may legitimately reach.
    stride: usize,
    /// First `A` row of this panel.
    i0: usize,
}

impl RowSource<'_> {
    /// The gather slice for panel row `r`.
    #[inline(always)]
    fn row(&self, r: usize) -> &[f32] {
        &self.a[(self.i0 + r) * self.stride..(self.i0 + r + 1) * self.stride]
    }

    /// One gathered `A` operand for panel row `r`, index `s` — the general
    /// path's load.
    ///
    /// The padded tail of the final window is part of the row, so every
    /// legitimate index is in bounds. An index past the stride is a
    /// corrupted index construction; silently zero-filling it would turn
    /// an indexing bug into a numerically-plausible wrong answer, so debug
    /// builds assert instead (release builds still zero-fill rather than
    /// fault).
    #[inline(always)]
    fn gather(&self, r: usize, s: usize) -> f32 {
        if s < self.stride {
            self.a[(self.i0 + r) * self.stride + s]
        } else {
            debug_assert!(
                false,
                "corrupted gather index {s}: padded window bound {}",
                self.stride
            );
            0.0
        }
    }
}

/// Whether every gather index of a block stays inside the dense depth
/// `k` — the fast path's actual requirement outside the packed class. The
/// coarse `(bk + 1) · kb ≤ k` test this replaces disqualified the *entire*
/// final partial k-block even when all of its indices are in bounds.
#[inline]
fn direct_gathers_in_bounds(idx: &[u32], k: usize) -> bool {
    idx.iter().all(|&s| (s as usize) < k)
}

/// Test-only counters proving which data path a run took. Thread-local so
/// concurrently running tests cannot disturb each other's counts; V1/V2
/// execute on the calling thread, so their blocks are all visible here
/// (V3's are only when it neither splits its rows nor its columns).
#[cfg(test)]
pub(crate) mod instrument {
    use std::cell::Cell;

    thread_local! {
        /// Blocks computed through the vectorized fast path.
        pub static FAST_BLOCKS: Cell<usize> = const { Cell::new(0) };
        /// Skinny (1- or 2-row) rungs of the fast-path row ladder — the
        /// decode tiles. Zero before the ladder existed: rows < 4 fell
        /// through to the general scalar path.
        pub static SKINNY_RUNGS: Cell<usize> = const { Cell::new(0) };
        /// `(window, k-block)` pairs the sliced path ran through the
        /// vectorized micro-tiles — proof the sliced fast flavor was
        /// actually exercised, not silently demoted to the general path.
        pub static SLICED_FAST: Cell<usize> = const { Cell::new(0) };
        /// V3 calls split across column ranges (counted on the calling
        /// thread, before the workers start).
        pub static COLUMN_SPLITS: Cell<usize> = const { Cell::new(0) };
    }
}

/// Per-panel scratch reused across blocks.
struct Scratch {
    /// Gather indices, `(j - j_lo) * ub_act + ui` layout.
    idx: Vec<u32>,
    /// General-path accumulator tile (`mt × nb`).
    acc: Vec<f32>,
    /// General-path per-row `A` values.
    av: Vec<f32>,
}

/// Compute one row panel (`rows = c_panel.len() / n` rows of `source`)
/// of a `k`-deep problem over the column blocks `jbis`. `packed` is the
/// preparation's [`packed_class`].
#[allow(clippy::too_many_arguments)]
fn run_panel(
    source: &RowSource<'_>,
    k: usize,
    sb: &NmSparseMatrix,
    t: &CpuTiling,
    staged: &StagedB,
    mk: MicroKernel,
    packed: bool,
    jbis: Range<usize>,
    c_panel: &mut [f32],
) {
    let cfg = sb.cfg();
    let n = sb.cols();
    let (w, q) = (sb.w(), sb.q());
    let d = sb.indices();
    let rows = c_panel.len() / n;
    let (nb, ub) = (staged.nb, staged.ub);
    let kb = ub * cfg.m / cfg.n;
    let qs = nb / cfg.l;
    // A general tile never spans more rows than the panel holds.
    let mt = t.mt.min(rows);

    let mut scratch = Scratch {
        idx: vec![0u32; ub * qs],
        acc: vec![0f32; mt.max(MW) * nb],
        av: vec![0f32; mt.max(MW)],
    };
    for jbi in jbis {
        let jb = jbi * nb;
        let jb_hi = (jb + nb).min(n);
        let j_lo = jb / cfg.l;
        let j_hi = jb_hi.div_ceil(cfg.l).min(q);

        for bk in 0..staged.kblocks {
            let u_lo = bk * ub;
            let u_hi = ((bk + 1) * ub).min(w);
            let ub_act = u_hi - u_lo;
            let bs = staged.block(jbi, bk);

            // Direct gather: global dense source columns.
            for j in j_lo..j_hi {
                for (ui, u) in (u_lo..u_hi).enumerate() {
                    let base = u / cfg.n * cfg.m;
                    scratch.idx[(j - j_lo) * ub_act + ui] = (base + d.get(u, j) as usize) as u32;
                }
            }

            // The vectorized micro-tile needs: 16-divisible windows, no
            // partial window in this column block, and all gathers inside
            // the dense depth — a bound the packed class waives, since the
            // padded tail reads as zeros. Otherwise a k-block fully inside
            // the dense depth trivially qualifies, and the final partial
            // block qualifies whenever its actual per-block indices do —
            // only a genuinely padded tail (k not a multiple of M) falls
            // back.
            let windows_full = (jb_hi - jb).is_multiple_of(cfg.l);
            let used_idx = &scratch.idx[..(j_hi - j_lo) * ub_act];
            let in_bounds = packed || (bk + 1) * kb <= k || direct_gathers_in_bounds(used_idx, k);
            let fast = cfg.l.is_multiple_of(NW) && windows_full && in_bounds;

            compute_block(
                source,
                mk,
                &scratch.idx,
                ub_act,
                bs,
                cfg.l,
                n,
                jb,
                jb_hi,
                j_lo,
                j_hi,
                rows,
                mt,
                fast,
                c_panel,
                &mut scratch.acc,
                &mut scratch.av,
            );
        }
    }
}

/// One `(column-block, k-block)` contribution to the panel's `C` rows.
/// When `fast`, every row goes through the vectorized register
/// micro-kernel via a 4→2→1 row ladder — full 4-row tiles, then a 2-row
/// and a 1-row skinny tile for the remainder, so decode panels (`rows <
/// 4`) and prefill tail rows are vectorized too, never demoted to the
/// scalar path. The dual-accumulator 32-wide tiles are used when `L`
/// allows it. Non-fast blocks (ragged windows, odd `L`, out-of-bounds
/// gathers) take the general scalar path.
#[allow(clippy::too_many_arguments)]
fn compute_block(
    source: &RowSource<'_>,
    mk: MicroKernel,
    idx: &[u32],
    ub_act: usize,
    bs: &[f32],
    l: usize,
    n: usize,
    jb: usize,
    jb_hi: usize,
    j_lo: usize,
    j_hi: usize,
    rows: usize,
    mt: usize,
    fast: bool,
    c_panel: &mut [f32],
    acc_scratch: &mut [f32],
    av_scratch: &mut [f32],
) {
    let nbw = jb_hi - jb;
    #[cfg(test)]
    if fast {
        instrument::FAST_BLOCKS.with(|c| c.set(c.get() + 1));
    }
    // The widest tile the window admits: `L % 32 == 0` doubles the
    // per-broadcast FMA work through the dual-accumulator kernel.
    let wide = l.is_multiple_of(NW2);

    let mut r0 = 0;
    if fast {
        while r0 + MW <= rows {
            run_fast_rows::<MW>(
                source, mk, idx, ub_act, bs, l, n, jb, nbw, j_lo, j_hi, wide, r0, c_panel,
            );
            r0 += MW;
        }
        if rows - r0 >= 2 {
            run_fast_rows::<2>(
                source, mk, idx, ub_act, bs, l, n, jb, nbw, j_lo, j_hi, wide, r0, c_panel,
            );
            r0 += 2;
        }
        if r0 < rows {
            run_fast_rows::<1>(
                source, mk, idx, ub_act, bs, l, n, jb, nbw, j_lo, j_hi, wide, r0, c_panel,
            );
            r0 += 1;
        }
    }

    // General path: whole non-fast blocks (ragged windows, odd L,
    // out-of-bounds gathers). Fast blocks never reach here — the row
    // ladder above covered every row.
    while r0 < rows {
        let rt = mt.min(rows - r0);
        let acc = &mut acc_scratch[..rt * nbw];
        acc.fill(0.0);
        for (ui, b_row) in bs.chunks(nbw).take(ub_act).enumerate() {
            for j in j_lo..j_hi {
                let s = idx[(j - j_lo) * ub_act + ui] as usize;
                for (r, slot) in av_scratch[..rt].iter_mut().enumerate() {
                    *slot = source.gather(r0 + r, s);
                }
                let lo = j * l;
                let hi = ((j + 1) * l).min(jb_hi);
                let b_seg = &b_row[lo - jb..hi - jb];
                for (r, &alpha) in av_scratch[..rt].iter().enumerate() {
                    if alpha != 0.0 {
                        let at = r * nbw + (lo - jb);
                        for (out, bv) in acc[at..at + b_seg.len()].iter_mut().zip(b_seg) {
                            *out += alpha * bv;
                        }
                    }
                }
            }
        }
        for r in 0..rt {
            let at = (r0 + r) * n + jb;
            for (out, add) in c_panel[at..at + nbw].iter_mut().zip(&acc[r * nbw..]) {
                *out += add;
            }
        }
        r0 += rt;
    }
}

/// One rung of the fast-path row ladder: `R` consecutive panel rows
/// through the vectorized `R×16` / `R×32` register tile across every
/// window of this `(column-block, k-block)` pair.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_fast_rows<const R: usize>(
    source: &RowSource<'_>,
    mk: MicroKernel,
    idx: &[u32],
    ub_act: usize,
    bs: &[f32],
    l: usize,
    n: usize,
    jb: usize,
    nbw: usize,
    j_lo: usize,
    j_hi: usize,
    wide: bool,
    r0: usize,
    c_panel: &mut [f32],
) {
    #[cfg(test)]
    if R < MW {
        instrument::SKINNY_RUNGS.with(|c| c.set(c.get() + 1));
    }
    let ar: [&[f32]; R] = std::array::from_fn(|i| source.row(r0 + i));
    for j in j_lo..j_hi {
        let lo = j * l;
        let idxj = &idx[(j - j_lo) * ub_act..(j - j_lo + 1) * ub_act];
        if wide {
            for off in (0..l).step_by(NW2) {
                let acc = mk.tile32(&ar, idxj, bs, nbw, lo - jb + off);
                add_tile(c_panel, &acc, r0, n, lo + off);
            }
        } else {
            for off in (0..l).step_by(NW) {
                let acc = mk.tile16(&ar, idxj, bs, nbw, lo - jb + off);
                add_tile(c_panel, &acc, r0, n, lo + off);
            }
        }
    }
}

/// Accumulate one `R × W` register tile into the panel rows starting at
/// `r0`, column `col`.
#[inline(always)]
fn add_tile<const R: usize, const W: usize>(
    c_panel: &mut [f32],
    acc: &[[f32; W]; R],
    r0: usize,
    n: usize,
    col: usize,
) {
    for (r, acc_row) in acc.iter().enumerate() {
        let at = (r0 + r) * n + col;
        for (out, add) in c_panel[at..at + W].iter_mut().zip(acc_row) {
            *out += add;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_core::prune::PrunePolicy;
    use nm_core::spmm::spmm_reference;

    fn cfg(n: usize, m: usize, l: usize) -> NmConfig {
        NmConfig::new(n, m, l).unwrap()
    }

    fn check(m: usize, k: usize, n: usize, c: NmConfig, tiling: CpuTiling) {
        let a = MatrixF32::random(m, k, 1);
        let b = MatrixF32::random(k, n, 2);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: 3 }).unwrap();
        let expect = spmm_reference(&a, &sb);
        for version in [NmVersion::V1, NmVersion::V2, NmVersion::V3] {
            let got = spmm_cpu(version, &a, &sb, tiling).unwrap();
            assert!(
                got.allclose(&expect, 1e-3, 1e-4),
                "{c} {version:?}: max diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn ladder_matches_reference_across_levels() {
        for c in NmConfig::paper_levels(8) {
            let t = CpuTiling::auto(c, 64, 96, 128).unwrap();
            check(64, 128, 96, c, t);
        }
    }

    #[test]
    fn full_micro_tile_path_matches_on_l16_and_l32() {
        // Shapes engineered so the fast path covers everything: L a
        // multiple of 16, every dimension block-aligned.
        for l in [16, 32] {
            let c = cfg(2, 8, l);
            let t = CpuTiling {
                mb: 16,
                nb: 2 * l,
                kb: 32,
                mt: 4,
            };
            check(32, 64, 4 * l, c, t);
        }
    }

    #[test]
    fn ragged_shapes_and_tiny_tiles() {
        let c = cfg(2, 16, 4);
        check(
            37,
            67,
            45,
            c,
            CpuTiling {
                mb: 16,
                nb: 8,
                kb: 32,
                mt: 4,
            },
        );
        check(
            5,
            16,
            9,
            c,
            CpuTiling {
                mb: 2,
                nb: 4,
                kb: 16,
                mt: 8,
            },
        );
    }

    #[test]
    fn moderate_sparsity_skips_packing_but_still_matches() {
        // 8:16 (50%) is below the 70% threshold: V2/V3 use the direct path.
        let c = cfg(8, 16, 8);
        assert!(!uses_packing(c));
        let t = CpuTiling::auto(c, 48, 64, 96).unwrap();
        check(48, 96, 64, c, t);
    }

    #[test]
    fn dense_n_equals_m_matches() {
        let c = cfg(4, 4, 4);
        let t = CpuTiling::auto(c, 32, 40, 64).unwrap();
        check(32, 64, 40, c, t);
    }

    #[test]
    fn derive_maps_plan_blocking_and_respects_budget() {
        let c = cfg(2, 8, 32);
        let p = BlockingParams::large();
        let t = CpuTiling::derive(p, c, 4096).unwrap();
        assert_eq!((t.mb, t.nb, t.mt), (p.ms, p.ns, p.mt));
        assert_eq!(t.kb % c.m, 0);
        let ub = t.kb * c.n / c.m;
        assert!(
            ub * t.nb * 4 <= B_BLOCK_BYTES,
            "B block must fit the budget"
        );
        // Shallow problems clamp kb to the padded depth.
        let shallow = CpuTiling::derive(p, c, 40).unwrap();
        assert_eq!(shallow.kb, 40);
    }

    #[test]
    fn derive_rejects_window_misaligned_ns() {
        let c = cfg(2, 16, 48); // L=48 divides no Table I ns
        let err = CpuTiling::derive(BlockingParams::small(), c, 1024).unwrap_err();
        assert!(matches!(err, NmError::InvalidBlocking { .. }), "{err}");
        // ...but `auto` widens the preset to stay usable.
        let t = CpuTiling::auto(c, 128, 96, 1024).unwrap();
        assert_eq!(t.nb % 48, 0);
    }

    #[test]
    fn spmm_cpu_rejects_bad_operands_and_tiles() {
        let c = cfg(2, 4, 4);
        let a = MatrixF32::random(8, 16, 5);
        let b = MatrixF32::random(16, 12, 6);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let good = CpuTiling {
            mb: 8,
            nb: 8,
            kb: 8,
            mt: 4,
        };
        let short_a = MatrixF32::random(8, 12, 7);
        assert!(matches!(
            spmm_cpu(NmVersion::V1, &short_a, &sb, good),
            Err(NmError::DimensionMismatch { .. })
        ));
        for bad in [
            CpuTiling { nb: 6, ..good }, // not a multiple of L
            CpuTiling { kb: 6, ..good }, // not a multiple of M
            CpuTiling { mt: 0, ..good }, // empty tile
            CpuTiling { nb: 0, ..good }, // empty block
        ] {
            assert!(
                matches!(
                    spmm_cpu(NmVersion::V2, &a, &sb, bad),
                    Err(NmError::InvalidBlocking { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn prepared_is_reusable_and_rejects_mismatched_operands() {
        let c = cfg(2, 8, 4);
        let b = MatrixF32::random(64, 32, 11);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let t = CpuTiling::auto(c, 16, 32, 64).unwrap();
        let prep = CpuPrepared::new(NmVersion::V3, &sb, t).unwrap();
        assert_eq!(prep.version(), NmVersion::V3);
        for seed in 0..3u64 {
            let a = MatrixF32::random(16, 64, 20 + seed);
            let got = spmm_cpu_prepared(&a, &sb, &prep).unwrap();
            assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        }
        // A same-k different-n operand (and a same-shape different-config
        // one) must be rejected by the fingerprint.
        let a = MatrixF32::random(16, 64, 30);
        let other = NmSparseMatrix::prune_magnitude(&MatrixF32::random(64, 40, 12), c).unwrap();
        assert!(matches!(
            spmm_cpu_prepared(&a, &other, &prep),
            Err(NmError::DimensionMismatch { .. })
        ));
        let recfg = NmSparseMatrix::prune_magnitude(&b, cfg(4, 16, 4)).unwrap(); // same w, different cfg
        assert_eq!(recfg.w(), sb.w(), "setup: shapes collide on purpose");
        assert!(matches!(
            spmm_cpu_prepared(&a, &recfg, &prep),
            Err(NmError::DimensionMismatch { .. })
        ));
        // A *different* matrix with identical shape AND config: shape
        // fields collide, the content fingerprint must not.
        let swapped = NmSparseMatrix::prune_magnitude(&MatrixF32::random(64, 32, 99), c).unwrap();
        assert_eq!(
            (swapped.w(), swapped.cols(), swapped.k(), swapped.cfg()),
            (sb.w(), sb.cols(), sb.k(), sb.cfg()),
            "setup: identical shape and config on purpose"
        );
        let err = spmm_cpu_prepared(&a, &swapped, &prep).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "swapping in a same-shape different matrix must be caught: {err}"
        );
    }

    #[test]
    fn tail_k_block_keeps_the_fast_path_when_gathers_are_in_bounds() {
        // k = 40 is a multiple of M = 8 but not of kb = 32: the coarse
        // `(bk + 1) * kb <= k` test used to kick the entire final k-block
        // (dense rows 32..40) off the fast path even though every gather
        // index is < k. The per-block bound keeps it vectorized.
        let c = cfg(2, 8, 16);
        let t = CpuTiling {
            mb: 8,
            nb: 32,
            kb: 32,
            mt: 4,
        };
        let (m, k, n) = (8, 40, 32);
        let a = MatrixF32::random(m, k, 21);
        let b = MatrixF32::random(k, n, 22);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: 23 }).unwrap();
        // V1 takes the direct source; count fast blocks across the run.
        let prep = CpuPrepared::with_kernel(NmVersion::V1, &sb, t, MicroKernel::scalar()).unwrap();
        let before = instrument::FAST_BLOCKS.with(|c| c.get());
        let got = spmm_cpu_prepared(&a, &sb, &prep).unwrap();
        let fast_blocks = instrument::FAST_BLOCKS.with(|c| c.get()) - before;
        assert!(
            got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4),
            "tail-block result must stay correct (max diff {})",
            got.max_abs_diff(&spmm_reference(&a, &sb))
        );
        // Two k-blocks (0..32 and the 32..40 tail), one column block: both
        // must have gone through the micro-kernel.
        assert_eq!(
            fast_blocks, 2,
            "the final partial k-block must keep the fast path"
        );
    }

    #[test]
    fn padded_tail_window_still_leaves_the_fast_path() {
        // k = 36 is NOT a multiple of M = 8: the final window's indices can
        // point into the padded range [36, 40) — a legitimate zero-fill the
        // fast path cannot handle, so a tail block whose gathers reach the
        // pad must fall back to the general path. Random pruning (unlike
        // magnitude, which never picks a zero padded lane) makes that
        // happen; the assertion adapts in case a reseed changes the draw.
        let c = cfg(2, 8, 16);
        let t = CpuTiling {
            mb: 8,
            nb: 32,
            kb: 32,
            mt: 4,
        };
        let (m, k, n) = (8, 36, 32);
        let a = MatrixF32::random(m, k, 31);
        let b = MatrixF32::random(k, n, 32);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: 33 }).unwrap();
        // Does any final-window gather point past k into the pad?
        let d = sb.indices();
        let tail_hits_pad =
            (8..sb.w()).any(|u| (0..sb.q()).any(|j| u / c.n * c.m + d.get(u, j) as usize >= k));
        let prep = CpuPrepared::with_kernel(NmVersion::V1, &sb, t, MicroKernel::scalar()).unwrap();
        let before = instrument::FAST_BLOCKS.with(|c| c.get());
        let got = spmm_cpu_prepared(&a, &sb, &prep).unwrap();
        let fast_blocks = instrument::FAST_BLOCKS.with(|c| c.get()) - before;
        assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        let expected = if tail_hits_pad { 1 } else { 2 };
        assert_eq!(
            fast_blocks, expected,
            "a tail block gathering from the pad must take the general path \
             (tail_hits_pad = {tail_hits_pad})"
        );
        assert!(
            tail_hits_pad,
            "seed 33 should produce at least one padded-lane pick; \
             reseed the test so the fallback case stays exercised"
        );
    }

    #[test]
    fn direct_gather_bound_is_per_index() {
        assert!(direct_gathers_in_bounds(&[0, 5, 39], 40));
        assert!(!direct_gathers_in_bounds(&[0, 5, 40], 40));
        assert!(direct_gathers_in_bounds(&[], 40), "vacuously true");
    }

    #[test]
    fn gather_zero_fills_only_the_padded_tail() {
        let a = MatrixF32::from_vec(2, 6, (1..13).map(|v| v as f32).collect());
        assert!(
            zero_padded(&a, 6).is_none(),
            "an M-aligned depth is not copied"
        );
        // k = 6, M-padded depth 8: indices 6 and 7 are the legitimate
        // padded tail of the final window; index 5 is a real load.
        let padded = zero_padded(&a, 8).unwrap();
        let src = RowSource {
            a: &padded,
            stride: 8,
            i0: 0,
        };
        assert_eq!(src.gather(1, 5), a.as_slice()[11]);
        assert_eq!(src.gather(0, 6), 0.0);
        assert_eq!(src.gather(1, 7), 0.0);
        assert_eq!(&src.row(1)[..6], a.row(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn corrupted_gather_index_is_caught_in_debug_builds() {
        use std::panic::catch_unwind;
        let a = vec![1.0f32; 16];
        let src = RowSource {
            a: &a,
            stride: 8,
            i0: 0,
        };
        // 9 is beyond even the padded depth: corruption, not padding.
        assert!(
            catch_unwind(|| src.gather(0, 9)).is_err(),
            "an index past the padded window bound must assert in debug"
        );
    }

    #[test]
    fn explicit_kernel_selection_is_reported() {
        let c = cfg(2, 8, 4);
        let b = MatrixF32::random(32, 16, 41);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let t = CpuTiling::auto(c, 16, 16, 32).unwrap();
        let prep = CpuPrepared::with_kernel(NmVersion::V2, &sb, t, MicroKernel::scalar()).unwrap();
        assert_eq!(prep.isa(), Isa::Scalar);
        assert_eq!(prep.kernel(), MicroKernel::scalar());
        // The default constructor picks a host-supported kernel too.
        let auto = CpuPrepared::new(NmVersion::V2, &sb, t).unwrap();
        assert!(auto.isa().supported());
    }

    #[test]
    fn packing_threshold_matches_core_boundary() {
        // Exactly 70% packs (>= convention), just below does not.
        assert!(uses_packing(NmConfig::new(3, 10, 4).unwrap()));
        assert!(!uses_packing(NmConfig::new(4, 10, 4).unwrap()));
        assert!(uses_packing(cfg(2, 8, 4))); // the 75% acceptance level
    }

    #[test]
    fn exact_boundary_config_matches_reference_through_packed_path() {
        let c = NmConfig::new(3, 10, 5).unwrap(); // exactly 0.70
        let t = CpuTiling {
            mb: 16,
            nb: 20,
            kb: 30,
            mt: 4,
        };
        check(23, 50, 35, c, t);
    }

    #[test]
    fn skinny_decode_rows_match_reference_across_levels() {
        // The decode regime: 1–5 activation rows through every ladder rung
        // (4-row tiles, the 2- and 1-row skinny tiles, and general-path
        // remainders) at all four paper sparsity levels.
        for c in NmConfig::paper_levels(16) {
            let t = CpuTiling::auto(c, 8, 64, 128).unwrap();
            for m in [1, 2, 3, 5] {
                check(m, 128, 64, c, t);
            }
        }
    }

    #[test]
    fn skinny_panels_stay_on_the_vectorized_fast_path() {
        // A single-row (decode) operand on a block-aligned shape: every
        // block must classify as fast AND run its row through the 1-row
        // skinny rung, not the general scalar path.
        let c = cfg(2, 8, 16);
        let t = CpuTiling {
            mb: 8,
            nb: 32,
            kb: 32,
            mt: 4,
        };
        let (k, n) = (64, 32);
        let b = MatrixF32::random(k, n, 52);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let prep = CpuPrepared::with_kernel(NmVersion::V1, &sb, t, MicroKernel::scalar()).unwrap();
        for (m, want_skinny) in [(1, 2), (2, 2), (3, 4), (6, 2)] {
            let a = MatrixF32::random(m, k, 51);
            let before_fast = instrument::FAST_BLOCKS.with(|c| c.get());
            let before_skinny = instrument::SKINNY_RUNGS.with(|c| c.get());
            let got = spmm_cpu_prepared(&a, &sb, &prep).unwrap();
            let fast = instrument::FAST_BLOCKS.with(|c| c.get()) - before_fast;
            let skinny = instrument::SKINNY_RUNGS.with(|c| c.get()) - before_skinny;
            assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
            // One column block × two k-blocks, all fast.
            assert_eq!(fast, 2, "m = {m}: both blocks must classify fast");
            // m=1 → one 1-row rung per block; m=2 → one 2-row rung; m=3 →
            // a 2-row and a 1-row rung; m=6 → one 4-row tile + a 2-row rung.
            assert_eq!(skinny, want_skinny, "m = {m}: skinny-rung count");
        }
    }

    /// Sliced and row-major preparations of the same operand must produce
    /// bit-identical outputs — not merely allclose — because the sliced
    /// staging replicates the row-major op-flavor per window.
    fn check_sliced_bitwise(m: usize, k: usize, n: usize, c: NmConfig, t: CpuTiling, seed: u64) {
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed + 1);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: seed + 2 }).unwrap();
        for version in [NmVersion::V1, NmVersion::V2, NmVersion::V3] {
            let rm = CpuPrepared::with_kernel(version, &sb, t, MicroKernel::scalar()).unwrap();
            for layout in [
                SlicedLayout::new(1, 1).unwrap(),
                SlicedLayout::new(4, 4).unwrap(),
                SlicedLayout::DEFAULT,
            ] {
                let sl = CpuPrepared::with_format(
                    version,
                    &sb,
                    t,
                    MicroKernel::scalar(),
                    StorageFormat::Sliced(layout),
                )
                .unwrap();
                assert_eq!(sl.format(), StorageFormat::Sliced(layout));
                let want = spmm_cpu_prepared(&a, &sb, &rm).unwrap();
                let got = spmm_cpu_prepared(&a, &sb, &sl).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{c} {version:?} {layout}: sliced must be bit-identical to row-major"
                );
            }
        }
    }

    #[test]
    fn sliced_is_bit_identical_across_levels_and_versions() {
        for c in NmConfig::paper_levels(16) {
            let t = CpuTiling::auto(c, 4, 64, 128).unwrap();
            check_sliced_bitwise(1, 128, 64, c, t, 71);
            check_sliced_bitwise(3, 128, 64, c, t, 73);
        }
    }

    #[test]
    fn sliced_is_bit_identical_on_ragged_shapes() {
        // Ragged everything: n not a multiple of L (partial final window),
        // k not a multiple of M (padded tail window), q not divisible by
        // the slice height, odd L off the fast path entirely.
        let c4 = cfg(2, 16, 4);
        check_sliced_bitwise(
            2,
            67,
            45,
            c4,
            CpuTiling {
                mb: 16,
                nb: 8,
                kb: 32,
                mt: 4,
            },
            81,
        );
        // L=16 with a padded tail (k=36): mixes fast and general flavors.
        // m = 5 drives the pad-reaching tail block through the 4-row tile
        // and the 1-row rung.
        let c16 = cfg(2, 8, 16);
        let t16 = CpuTiling {
            mb: 8,
            nb: 32,
            kb: 32,
            mt: 4,
        };
        check_sliced_bitwise(1, 36, 32, c16, t16, 83);
        check_sliced_bitwise(5, 36, 32, c16, t16, 83);
        // The packed class keeps that tail block on the fast path: a V3
        // preparation (one row panel, so it runs on this thread) sends
        // both k-blocks through the micro-tiles, reading the pad as zeros.
        let a = MatrixF32::random(5, 36, 83);
        let b = MatrixF32::random(36, 32, 84);
        let sb = NmSparseMatrix::prune(&b, c16, PrunePolicy::Random { seed: 85 }).unwrap();
        let d = sb.indices();
        assert!(
            (8..sb.w())
                .any(|u| (0..sb.q()).any(|j| u / c16.n * c16.m + d.get(u, j) as usize >= 36)),
            "setup: the tail block must gather from the pad"
        );
        let v3 = CpuPrepared::with_kernel(NmVersion::V3, &sb, t16, MicroKernel::scalar()).unwrap();
        let before = instrument::FAST_BLOCKS.with(|c| c.get());
        let got = spmm_cpu_prepared(&a, &sb, &v3).unwrap();
        let fast_blocks = instrument::FAST_BLOCKS.with(|c| c.get()) - before;
        assert_eq!(
            fast_blocks, 2,
            "V3 2:8 must keep the pad-reaching tail block fast"
        );
        assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
    }

    #[test]
    fn sliced_fast_windows_run_the_micro_tiles() {
        let c = cfg(2, 8, 16);
        let t = CpuTiling {
            mb: 8,
            nb: 32,
            kb: 32,
            mt: 4,
        };
        let (k, n) = (64, 32);
        let b = MatrixF32::random(k, n, 91);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let prep = CpuPrepared::with_format(
            NmVersion::V1,
            &sb,
            t,
            MicroKernel::scalar(),
            StorageFormat::Sliced(SlicedLayout::DEFAULT),
        )
        .unwrap();
        let x = MatrixF32::random(1, k, 92);
        let before = instrument::SLICED_FAST.with(|c| c.get());
        let y = spmv_cpu_prepared(x.row(0), &sb, &prep).unwrap();
        let fast = instrument::SLICED_FAST.with(|c| c.get()) - before;
        // 2 windows × 2 k-blocks, all block-aligned: every pair is fast.
        assert_eq!(fast, 4, "all sliced (window, k-block) pairs must be fast");
        let rm = CpuPrepared::with_kernel(NmVersion::V1, &sb, t, MicroKernel::scalar()).unwrap();
        let want = spmv_cpu_prepared(x.row(0), &sb, &rm).unwrap();
        assert_eq!(y, want, "bit-identical to the row-major decode path");
        let expect = spmm_reference(&x, &sb);
        let got = MatrixF32::from_vec(1, n, y);
        assert!(got.allclose(&expect, 1e-3, 1e-4));
    }

    #[test]
    fn spmv_prepared_matches_the_matrix_path_and_validates_length() {
        let c = cfg(2, 8, 16);
        let (k, n) = (96, 64);
        let b = MatrixF32::random(k, n, 61);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let t = CpuTiling::auto(c, 1, n, k).unwrap();
        let x = MatrixF32::random(1, k, 62);
        let expect = spmm_reference(&x, &sb);
        for version in [NmVersion::V1, NmVersion::V2, NmVersion::V3] {
            let prep = CpuPrepared::new(version, &sb, t).unwrap();
            let y = spmv_cpu_prepared(x.row(0), &sb, &prep).unwrap();
            let got = MatrixF32::from_vec(1, n, y);
            assert!(
                got.allclose(&expect, 1e-3, 1e-4),
                "{version:?}: max diff {}",
                got.max_abs_diff(&expect)
            );
            assert!(matches!(
                spmv_cpu_prepared(&x.row(0)[..k - 1], &sb, &prep),
                Err(NmError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn v3_splits_columns_only_when_row_panels_cannot_fill_the_workers() {
        // n = 1024 stages 16 column blocks of nb = 64, so a one-panel call
        // splits on any host with two or more workers.
        let c = cfg(2, 8, 32);
        let t = CpuTiling {
            mb: 8,
            nb: 64,
            kb: 512,
            mt: 4,
        };
        let split_expected = rayon::current_num_threads() >= 2;
        let splits = || instrument::COLUMN_SPLITS.with(|s| s.get());
        let (k, n) = (2048, 1024);
        let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, 101), c).unwrap();
        for format in [
            StorageFormat::RowMajor,
            StorageFormat::Sliced(SlicedLayout::DEFAULT),
        ] {
            let prep =
                |v| CpuPrepared::with_format(v, &sb, t, MicroKernel::scalar(), format).unwrap();
            let (v1, v3) = (prep(NmVersion::V1), prep(NmVersion::V3));
            for m in [1, 3, 8] {
                let a = MatrixF32::random(m, k, 102);
                let before = splits();
                let got = spmm_cpu_prepared(&a, &sb, &v3).unwrap();
                assert_eq!(
                    splits() - before,
                    usize::from(split_expected),
                    "{format} m = {m}: one row panel must split across columns"
                );
                let want = spmm_cpu_prepared(&a, &sb, &v1).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "{format} m = {m}");
            }
            // Enough row panels for every worker: the row panels stay.
            let before = splits();
            spmm_cpu_prepared(&MatrixF32::random(256, k, 105), &sb, &v3).unwrap();
            assert_eq!(splits() - before, 0, "{format}: m = 256 keeps its rows");
            // V1/V2 never split.
            assert_eq!(v1.column_parts(1), 1);
        }

        // A layer with one column block (n = nb) has no second range to
        // hand out, so m = 1 runs its single panel on the calling thread.
        let narrow = NmSparseMatrix::prune_magnitude(&MatrixF32::random(256, 64, 103), c).unwrap();
        let v3 =
            CpuPrepared::with_kernel(NmVersion::V3, &narrow, t, MicroKernel::scalar()).unwrap();
        assert_eq!(v3.column_parts(1), 1);
        let before = splits();
        spmm_cpu_prepared(&MatrixF32::random(1, 256, 104), &narrow, &v3).unwrap();
        assert_eq!(splits() - before, 0, "a one-block layer must stay unsplit");
    }
}
