//! Native CPU execution of N:M-sparse SpMM: one kernel.
//!
//! The paper's V1→V3 ladder (hierarchical blocking, then sparsity-aware
//! packing, then the pipeline) is a set of GPU steps; the simulated kernels
//! in [`crate::nm`] model it and the WGSL families in the codegen backend
//! emit it. On the host those steps do not separate, so this module runs
//! one kernel over the identical offset-compressed [`NmSparseMatrix`]:
//!
//! * **Blocking.** `mb×nb×kb` cache blocking around a register
//!   micro-kernel. `B′` is staged once as SELL-C-σ slices
//!   ([`SlicedMatrix`]): runs of `C` pruning windows, each window's values
//!   one dense `w×L` panel of the weights' own window-major storage,
//!   borrowed rather than copied (so a k-block of it is one contiguous
//!   `ub×L` run), with its absolute gather indices resolved offline. The paper's
//!   layout ([`StorageFormat::RowMajor`], the CPU analogue of its
//!   `transformLayout` + shared-memory `Bs` tile) is the `C = nb/L, σ = 1`
//!   slicing: one unsorted slice per `nb`-wide column block. One panel
//!   walk serves every layout: per `mb`-row panel × slice × k-block, full
//!   16- (or 32-) float window chunks run through an explicitly vectorized
//!   register micro-tile ([`crate::simd::MicroKernel`] — AVX2/AVX-512/NEON
//!   selected once at preparation time, scalar fallback elsewhere) via a
//!   row ladder whose top rung is the kernel's [`MicroKernel::tile_rows`]
//!   (8→4→2→1 on AVX-512, 4→2→1 on AVX2 and NEON), so one panel load
//!   feeds up to eight rows and skinny decode panels (1–3 rows, including
//!   `m = 1` SpMV) stay vectorized; ragged column windows take a general
//!   scalar path.
//! * **Block classification.** The paper packs the window-union columns of
//!   `A` through `col_info` (§III-C1) to save GPU shared-memory and global
//!   traffic. On the CPU the k-block of `A` a block reads is already
//!   cache-resident, so the kernel gathers `A` in place; what it keeps of
//!   the packed path is the classification ([`uses_packing`]). Above the
//!   70% sparsity threshold every window-aligned block runs the
//!   micro-tiles, reading the padded tail of the final window (`k` not a
//!   multiple of `M`) as zeros from a zero-padded copy of `A` — the 0.0
//!   the packed panel held.
//! * **Parallelism.** Rows or columns are split over the rayon pool's
//!   persistent workers, as the paper's kernels launch a 2-D grid of row
//!   and column tiles. A call that holds a panel of the plan's `ms` rows
//!   per worker runs row panels, one per task: `mb` rows cut to
//!   `ceil(m / workers)` (rounded up to the tall tile, never below `ms`).
//!   A shorter call (every decode call, `m ≤ 8`) splits the staged `B′`
//!   into runs of slices, one per worker; each worker fills a private
//!   buffer and the caller copies the owned columns into `C`. Every
//!   element sees the same `+=` sequence whatever the split, so the kernel
//!   pinned to one worker (a one-thread `rayon::ThreadPool::install`) is
//!   bit-identical to it on every worker count.
//!
//! Two tile levels come from the host. The register tile's height is the
//! selected ISA's ([`MicroKernel::tile_rows`]). [`CpuTiling::derive`]
//! sizes the row panel `mb` from the host's per-core L2: the largest power
//! of two whose `A` rows fill at most half of it, never below the plan's
//! `ms`, so one panel's `A` stays in L2 while `B′` streams once per panel
//! (the plan's `ms` when the host reports no L2). The rest maps a
//! [`Plan`]'s auto-tuned [`BlockingParams`] as before (`nb = ns`,
//! `mt = mt`), with `kb` sized from a 64 KiB `B′` block budget; sweeps of
//! `nb` and `kb` on an AVX-512 host were flat. A blocking that cannot
//! drive the CPU tiles (e.g. `ns` not a multiple of the vector length
//! `L`, possible when the autotuner fell back to the `Para_Init_Table`
//! preset) is a structured [`NmError::InvalidBlocking`], never a panic.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::pattern::{NmConfig, SparsityClass};
use nm_core::sliced::{SlicedLayout, SlicedMatrix, StorageFormat};
use nm_core::sparse::NmSparseMatrix;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

use crate::backend::{BackendKind, ExecRun, PreparedState};
use crate::nm::NmVersion;
use crate::params::BlockingParams;
use crate::plan::{EstimateSummary, KernelChoice, Plan};
use crate::simd::{Isa, MicroKernel, MW, MW_TALL, NW, NW2};

/// Cache-capacity target for one staged `B′` block (`ub × nb` floats): the
/// k-depth [`CpuTiling::derive`] picks keeps the block within this many
/// bytes so it survives in cache across the panel's row tiles.
const B_BLOCK_BYTES: usize = 64 * 1024;

/// The per-core level-2 cache size this host reports, read once from
/// Linux sysfs (`/sys/devices/system/cpu/cpu0/cache/index*/`: the data or
/// unified cache whose `level` is 2); `None` elsewhere or when the files
/// are missing or malformed.
fn host_l2_bytes() -> Option<usize> {
    static L2: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *L2.get_or_init(|| {
        let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
        dir.flatten().find_map(|entry| {
            let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
            let is_l2 = read("level")?.trim() == "2" && read("type")?.trim() != "Instruction";
            is_l2.then(|| parse_cache_size(&read("size")?)).flatten()
        })
    })
}

/// A sysfs cache `size` (`2048K`, `1M`, or plain bytes) in bytes.
fn parse_cache_size(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, unit) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits
        .parse::<usize>()
        .ok()?
        .checked_mul(unit)
        .filter(|&b| b > 0)
}

/// Rows per panel for a `k_pad`-deep problem on a host with `l2` bytes of
/// per-core L2: the largest power of two whose `A` rows (`mb · k_pad`
/// floats) fill at most half of `l2`, leaving the rest to the streamed
/// `B′` blocks and the output rows; never below the plan's `ms`, and `ms`
/// itself when the host reports no L2.
fn panel_rows_for_l2(ms: usize, k_pad: usize, l2: Option<usize>) -> usize {
    let fit = l2.map_or(0, |l2| l2 / 2 / (k_pad.max(1) * 4));
    if fit == 0 {
        return ms;
    }
    (1usize << fit.ilog2()).max(ms)
}

/// The cut of an `m`-row call over `workers` threads into
/// `(rows per panel, column ranges)`, for a preparation with `mb`-row
/// panels that may be cut down to `floor` rows (`floor ≤ mb`: the plan's
/// `ms` under an L2-sized `mb`, else `mb` itself).
///
/// The row-or-column decision is made on `floor`: row panels when the
/// call holds a `floor`-row panel per worker. Those panels are then `mb`
/// rows, cut to `ceil(m / workers)` rounded up to the tall tile so every
/// worker gets one, and never below `floor`. An L2-sized `mb` taken whole
/// would leave workers idle: a 256-row call with `mb = 256` runs one panel
/// on one thread, or, decided on `mb`, the column split, which ran 3× the
/// time of two 128-row panels (256×1024×1024 at 4:16 on a 2-vCPU AVX-512
/// host). A call too short for the
/// decision splits into one column range per worker (never more than the
/// staging's `slices`) over `floor`-row panels.
fn v3_split(mb: usize, floor: usize, m: usize, workers: usize, slices: usize) -> (usize, usize) {
    let workers = workers.max(1);
    let floor = floor.min(m);
    if m.div_ceil(floor) < workers {
        return (floor, workers.min(slices).max(1));
    }
    let per_worker = m.div_ceil(workers).next_multiple_of(MW_TALL);
    (mb.min(per_worker).max(floor).min(m), 1)
}

/// The rows per panel a cost-model preparation with `mb`-row panels
/// (the plan's `ms` as floor) runs an `m`-row call in on this host's rayon
/// workers — the panel a measured candidate carries to run the same cut
/// as given.
pub(crate) fn v3_cost_model_panel(mb: usize, ms: usize, m: usize) -> usize {
    v3_split(mb, ms.min(mb), m, rayon::current_num_threads(), 1).0
}

/// Whether the paper packs `A` for `cfg` — exactly its §III-A rule:
/// sparsity at or above [`nm_core::pattern::SPARSITY_THRESHOLD`] (70%)
/// packs, below it the direct gather is cheaper than the staging it would
/// save. The CPU kernel gathers in place either way; a packed `cfg`
/// classifies blocks as the packed path would: every block of whole,
/// 16-divisible windows runs the vectorized micro-tiles, even where its
/// gathers reach the zero-padded tail of `A`. The staging and the codegen
/// backend both key on this one predicate, so they pick FMA versus
/// zero-skipping mul-add on the same blocks.
#[inline]
pub fn uses_packing(cfg: NmConfig) -> bool {
    cfg.class() == SparsityClass::High
}

/// CPU tile sizes for one problem, derived from a plan's auto-tuned
/// blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTiling {
    /// Rows of `C` per panel (the unit of row parallelism); sized from the
    /// host's L2, never below `ms`.
    pub mb: usize,
    /// Columns of `C` per block, a multiple of `L`; from `ns`.
    pub nb: usize,
    /// Dense k-depth per block, a multiple of `M`; sized to keep one
    /// staged `B′` block within the cache-capacity budget
    /// (`B_BLOCK_BYTES`).
    pub kb: usize,
    /// Rows per general-path register tile (the fast path uses the row
    /// ladder of vectorized micro-tiles, topped by the kernel's
    /// [`MicroKernel::tile_rows`]); from `mt`.
    pub mt: usize,
}

impl CpuTiling {
    /// Map auto-tuned GPU blocking onto CPU tiles for a `k`-deep problem,
    /// with the row panel sized from this host's L2 (see the module docs).
    ///
    /// Fails with [`NmError::InvalidBlocking`] when the blocking cannot
    /// drive the CPU tiles (zero tile sizes, or `ns` not a multiple of the
    /// vector length `L` — the window-alignment the column blocks require).
    pub fn derive(params: BlockingParams, cfg: NmConfig, k: usize) -> Result<Self> {
        Self::derive_for_l2(params, cfg, k, host_l2_bytes())
    }

    /// [`CpuTiling::derive`] on a host with `l2` bytes of per-core L2
    /// (`None`: unknown, the panel stays the plan's `ms`).
    fn derive_for_l2(
        params: BlockingParams,
        cfg: NmConfig,
        k: usize,
        l2: Option<usize>,
    ) -> Result<Self> {
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
            mb: panel_rows_for_l2(params.ms, k_pad, l2),
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

/// The offline pre-processing product for one `(B′, tiling)` combination: validated tile geometry and the `B′` staging — SELL-C-σ
/// slices, of which the paper's block-contiguous `transformLayout`
/// panels are the `σ = 1`, `C = nb/L` case.
///
/// Everything in here depends only on the *weights* (`sb`) and the tiling,
/// never on the activations `A`, so it is built once and amortized across
/// executions — exactly the paper's offline step. It holds no reference
/// to `sb`: the online kernel reads the staging alone. Its
/// [`PreparedState::run`] times the online kernel only; the zero-padded
/// copy of `A` a ragged depth (`k` not a multiple of `M`) needs stays
/// inside the timed window because it genuinely is online work.
pub struct CpuPrepared {
    tiling: CpuTiling,
    /// The micro-kernel selected for this preparation — runtime ISA
    /// detection happens exactly once, here, never inside the hot loop.
    kernel: MicroKernel,
    /// The staged operand's config and `k × n` shape; the online path
    /// checks an activation's depth against `k`.
    cfg: NmConfig,
    n: usize,
    k: usize,
    /// The format the caller asked for; row-major stages as the
    /// `C = nb/L, σ = 1` slices.
    format: StorageFormat,
    staged: StagedSliced,
    /// The fewest rows a call's panel is cut down to ([`v3_split`]): the
    /// plan's `ms` under a derived, L2-sized `mb`; `tiling.mb` (the panel
    /// runs as given) for a measured or explicit tiling.
    min_panel: usize,
    /// The plan's V3 estimate a run reports (`None` outside
    /// [`CpuPrepared::for_plan`]).
    estimate: Option<EstimateSummary>,
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
    pub fn new(sb: &NmSparseMatrix, tiling: CpuTiling) -> Result<Self> {
        Self::with_kernel(sb, tiling, MicroKernel::select()?)
    }

    /// As [`CpuPrepared::new`] but with an explicit micro-kernel — the
    /// hook the parity suites use to A/B every compiled ISA on one host.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the tiling is not window-aligned
    /// for `sb`'s configuration.
    pub fn with_kernel(
        sb: &NmSparseMatrix,
        tiling: CpuTiling,
        kernel: MicroKernel,
    ) -> Result<Self> {
        Self::with_format(sb, tiling, kernel, StorageFormat::RowMajor)
    }

    /// The fully explicit constructor: micro-kernel *and* storage format.
    /// Row-major stages the `C = nb/L, σ = 1` slices (the `transformLayout`
    /// panels); a sliced format stages its own `C` and `σ`. Every layout
    /// carries the same per-window block classification, so all execute
    /// the same arithmetic in the same order — bit-identical results.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the tiling is not window-aligned
    /// for `sb`'s configuration; [`NmError::InvalidConfig`] for an invalid
    /// sliced parameterization.
    pub fn with_format(
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

        // Stage B′ once, borrowing its panels. Row-major is the slicing
        // whose slices are the `nb`-wide column blocks, unsorted: the
        // `transformLayout` panels.
        let layout = match format {
            StorageFormat::RowMajor => SlicedLayout::new(nb / cfg.l, 1)?,
            StorageFormat::Sliced(layout) => layout,
        };
        let staged = StagedSliced::build(sb, nb, kb, uses_packing(cfg), layout)?;
        Ok(Self {
            tiling,
            kernel,
            cfg,
            n,
            k,
            format,
            staged,
            min_panel: tiling.mb,
            estimate: None,
        })
    }

    /// The CPU and codegen backends' offline step: prepare `sb` for a run
    /// of `plan`. A plan carrying measured evidence stages its measured
    /// tiling (when window-aligned for these weights) and storage format;
    /// otherwise the tiling is [`CpuTiling::derive`]d and the format is
    /// the key's lane. `kernel` pins the micro-kernel; `None` runs
    /// [`MicroKernel::select`].
    pub(crate) fn for_plan(
        plan: &Plan,
        sb: &NmSparseMatrix,
        kernel: Option<MicroKernel>,
    ) -> Result<Self> {
        let cfg = sb.cfg();
        let measured = plan.measured;
        let (tiling, min_panel) = match measured.map(|m| m.cpu_tiling) {
            Some(t) if t.nb.is_multiple_of(cfg.l) && t.kb.is_multiple_of(cfg.m) => (t, t.mb),
            _ => {
                let t = CpuTiling::derive(plan.params, cfg, sb.k())?;
                (t, plan.params.ms.min(t.mb))
            }
        };
        let format = measured.map_or(plan.key.storage, |m| m.storage);
        let kernel = kernel.map_or_else(MicroKernel::select, Ok)?;
        let prep = Self::with_format(sb, tiling, kernel, format)?;
        Ok(Self {
            min_panel,
            estimate: plan.estimates.get(KernelChoice::NmV3),
            ..prep
        })
    }

    /// The effective (clamped) tile geometry.
    pub fn tiling(&self) -> CpuTiling {
        self.tiling
    }

    /// The fewest rows a call's panel is cut down to: the plan's `ms`
    /// under a derived tiling, else the tiling's own `mb` — the plan's
    /// panel, whichever host it runs on.
    pub(crate) fn min_panel(&self) -> usize {
        self.min_panel
    }

    /// The instruction set the selected micro-kernel executes — what
    /// [`ExecRun`] and `BENCH_pr.json` record.
    pub fn isa(&self) -> Isa {
        self.kernel.isa()
    }

    /// The storage format this preparation staged `B′` in.
    pub fn format(&self) -> StorageFormat {
        self.format
    }

    /// The staging's parts `(slices, fast flags, kblocks)`. The fast
    /// flags are the op-flavor map, `fast[pos * kblocks + bk]` over
    /// permuted window positions — the codegen backend lowers its column
    /// groups from the slices and re-uses the flags verbatim as its
    /// per-span selector table, so the generated shader walks the same
    /// blocks the CPU kernel does.
    pub(crate) fn staged(&self) -> (&SlicedMatrix, &[bool], usize) {
        let ss = &self.staged;
        (&ss.sm, &ss.fast, ss.kblocks)
    }

    /// How an `m`-row call is cut: `(rows per panel, column ranges)`.
    /// A panel never holds more than `m` rows, so that clamp changes no
    /// arithmetic and bounds `mb × n` even for a doctored cached tiling.
    /// The cut is [`v3_split`]'s over the rayon workers.
    fn split(&self, m: usize) -> (usize, usize) {
        let (mb, slices) = (self.tiling.mb, self.staged.sm.slices());
        v3_split(mb, self.min_panel, m, rayon::current_num_threads(), slices)
    }
}

impl PreparedState for CpuPrepared {
    /// The online kernel only — `wall_seconds` excludes every cost the
    /// preparation already paid, matching the paper's accounting for its
    /// `col_info` pre-processing.
    fn run(&self, a: &MatrixF32) -> Result<ExecRun> {
        let t0 = Instant::now();
        let c = spmm_cpu_prepared(a, self)?;
        let wall_seconds = t0.elapsed().as_secs_f64();
        Ok(ExecRun {
            c,
            backend: BackendKind::Cpu(NmVersion::V3),
            wall_seconds,
            estimate: self.estimate,
            isa: Some(self.isa()),
            stats: None,
            report: None,
        })
    }

    fn isa(&self) -> Option<Isa> {
        Some(CpuPrepared::isa(self))
    }

    fn storage(&self) -> Option<StorageFormat> {
        Some(self.format)
    }

    fn staging(&self) -> Option<&SlicedMatrix> {
        Some(&self.staged.sm)
    }
}

/// The online kernel: execute `C = A ⊛ (B′, D)` natively on the CPU
/// against a pre-built [`CpuPrepared`] (amortizing the offline staging
/// across calls, as inference serving would). The preparation owns the
/// staged `B′` it reads, so the compressed matrix is not consulted. The
/// result matches [`nm_core::spmm::spmm_reference`] up to reduction order,
/// and is bit-identical on every worker count.
///
/// # Errors
/// [`NmError::DimensionMismatch`] when `a`'s depth disagrees with the `k`
/// the preparation was staged for.
pub fn spmm_cpu_prepared(a: &MatrixF32, prep: &CpuPrepared) -> Result<MatrixF32> {
    let (m, k) = a.shape();
    if k != prep.k {
        return Err(NmError::DimensionMismatch {
            expected: format!("A with k = {}", prep.k),
            found: format!("A is {m} x {k}"),
        });
    }

    let n = prep.n;
    let mut c = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(c);
    }
    let (mb, parts) = prep.split(m);
    // Gather indices of the final window may legitimately reach the padded
    // tail `[k, k_pad)`; the walk gathers those from a zero-padded copy of
    // A, so every gather — fast or general — is a plain in-bounds load.
    let k_pad = k.div_ceil(prep.cfg.m) * prep.cfg.m;
    let padded = zero_padded(a, k_pad);
    let (xa, xk) = match &padded {
        Some(p) => (p.as_slice(), k_pad),
        None => (a.as_slice(), k),
    };

    let slices = prep.staged.sm.slices();
    // Rows `i0..` of the call into `c_panel`, over the slices `ss`.
    let panel = |i0: usize, ss: Range<usize>, c_panel: &mut [f32]| {
        let source = RowSource {
            a: xa,
            stride: xk,
            i0,
        };
        walk_panel(prep, &source, ss, c_panel);
    };
    if parts > 1 {
        // Fewer row panels than workers: each worker takes a run of slices
        // through every row panel; it owns their windows' column spans.
        let ranges = even_ranges(slices, parts);
        let owned: Vec<_> = ranges
            .iter()
            .map(|r| prep.staged.spans(r.clone()))
            .collect();
        split_columns(c.as_mut_slice(), n, &owned, |p, buf| {
            for (pi, c_panel) in buf.chunks_mut(mb * n).enumerate() {
                panel(pi * mb, ranges[p].clone(), c_panel);
            }
        });
    } else {
        // Rayon row panels (each owns its scratch).
        c.as_mut_slice()
            .par_chunks_mut(mb * n)
            .enumerate()
            .for_each(|(p, c_panel)| panel(p * mb, 0..slices, c_panel));
    }
    Ok(c)
}

/// `0..units` cut into `parts` contiguous, near-equal ranges.
fn even_ranges(units: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|p| p * units / parts..(p + 1) * units / parts)
        .collect()
}

/// The column split: part `p` runs `fill(p, buf)` on its own worker into
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
/// entry point of the kernel. The vector is viewed as a `1 × k` operand
/// and runs the 1-row rung of the fast-path ladder; no extra staging or
/// copies beyond the `1 × k` view are made, so a preparation built for
/// prefill serves decode for free.
///
/// # Errors
/// [`NmError::DimensionMismatch`] when `x.len()` disagrees with the
/// preparation's `k` — the same check as [`spmm_cpu_prepared`].
pub fn spmv_cpu_prepared(x: &[f32], prep: &CpuPrepared) -> Result<Vec<f32>> {
    let a = MatrixF32::from_vec(1, x.len(), x.to_vec());
    spmm_cpu_prepared(&a, prep).map(MatrixF32::into_vec)
}

/// The staged `B′`: the built [`SlicedMatrix`] plus the *op-flavor map*
/// that picks, per `(window, k-block)` pair, between the vectorized
/// micro-tiles and the general mul-add-with-zero-skip.
///
/// The two flavors round differently (FMA versus separate multiply/add)
/// and the general path skips zero operands, so every layout of one
/// operand must pick the same flavor per window to stay bit-identical.
/// The map is therefore classified on the layout-independent `nb`-wide
/// column blocks ([`fast_flags`]) and re-indexed to the layout's permuted
/// window positions; at the row-major `C = nb/L, σ = 1` point a slice *is*
/// a column block and the re-index is the identity.
struct StagedSliced {
    sm: SlicedMatrix,
    /// Compressed rows per k-block.
    ub: usize,
    kblocks: usize,
    /// Fast flag per `(permuted window position, k-block)`,
    /// `fast[pos * kblocks + bk]`.
    fast: Vec<bool>,
}

impl StagedSliced {
    /// Build the staging for the clamped block geometry `(nb, kb)`.
    /// `packed` is the operand's [`uses_packing`], which widens the fast
    /// classification.
    fn build(
        sb: &NmSparseMatrix,
        nb: usize,
        kb: usize,
        packed: bool,
        layout: SlicedLayout,
    ) -> Result<Self> {
        let cfg = sb.cfg();
        let (w, q) = (sb.w(), sb.q());
        let sm = SlicedMatrix::build(sb, layout)?;
        let ub = kb * cfg.n / cfg.m;
        let kblocks = w.div_ceil(ub);
        let by_window = fast_flags(sb, nb, kb, packed);
        // Re-index the flags to permuted window positions.
        let fast = (0..q)
            .flat_map(|pos| {
                let old = sm.perm().perm[pos];
                by_window[old * kblocks..(old + 1) * kblocks].to_vec()
            })
            .collect();
        Ok(Self {
            sm,
            ub,
            kblocks,
            fast,
        })
    }

    /// The output column spans (half-open, adjacent ones merged) the
    /// windows of `slices` write back to.
    fn spans(&self, slices: Range<usize>) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for pos in slices.flat_map(|s| self.sm.slice_windows(s)) {
            let (col, lw) = self.sm.span(pos);
            match spans.last_mut() {
                Some(last) if last.1 == col => last.1 = col + lw,
                _ => spans.push((col, col + lw)),
            }
        }
        spans
    }
}

/// The fast/general classification, flattened to `(window, k-block)`
/// pairs: `fast[j * kblocks + bk]` over the block geometry `(nb, kb)`. A
/// block runs the vectorized micro-tiles when the window length is a
/// multiple of the 16-float tile, the column block holds no partial
/// window, and every gather stays inside the dense depth `k` — a bound
/// a packed operand ([`uses_packing`], `packed`) waives, since it gathers the padded
/// tail as zeros. The bound is checked per index, so a final partial
/// k-block whose gathers all land below `k` stays fast.
fn fast_flags(sb: &NmSparseMatrix, nb: usize, kb: usize, packed: bool) -> Vec<bool> {
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

/// Test-only counters proving which data path a run took. Thread-local so
/// concurrently running tests cannot disturb each other's counts; a call
/// pinned to one worker runs every block on one thread, which reads them.
#[cfg(test)]
pub(crate) mod instrument {
    use std::cell::Cell;

    thread_local! {
        /// `(window, k-block)` pairs a row panel ran through the
        /// vectorized micro-tiles.
        pub static FAST_BLOCKS: Cell<usize> = const { Cell::new(0) };
        /// Skinny (1- or 2-row) rungs of the fast-path row ladder — the
        /// decode tiles — one per `(slice, k-block)` pair that has fast
        /// windows.
        pub static SKINNY_RUNGS: Cell<usize> = const { Cell::new(0) };
        /// Tall (8-row) rungs of the fast-path row ladder, counted as
        /// [`SKINNY_RUNGS`] is.
        pub static TALL_RUNGS: Cell<usize> = const { Cell::new(0) };
        /// Calls split across column ranges (counted on the calling
        /// thread, before the workers start).
        pub static COLUMN_SPLITS: Cell<usize> = const { Cell::new(0) };
    }
}

/// One window of a `(slice, k-block)` pair: its absolute gather indices
/// and its `ub_act × lw` value panel over the k-block, and its output
/// column span `col..col + lw`.
struct Window<'a> {
    idx: &'a [u32],
    bs: &'a [f32],
    col: usize,
    lw: usize,
}

impl<'a> Window<'a> {
    /// The window at permuted position `pos` of `sm`, over the compressed
    /// rows `u_lo..u_hi` of one k-block.
    fn at(sm: &'a SlicedMatrix, pos: usize, u_lo: usize, u_hi: usize) -> Self {
        let (col, lw) = sm.span(pos);
        Window {
            idx: sm.gather_span(pos, u_lo, u_hi),
            bs: sm.window_values(pos, u_lo, u_hi),
            col,
            lw,
        }
    }
}

/// Compute one row panel (`c_panel.len() / n` rows of `source`) over the
/// slices `slices`. Per slice and k-block, the fast windows run every row
/// through the vectorized register micro-tiles via a row ladder topped by
/// the kernel's [`MicroKernel::tile_rows`] — full 8-row tiles where the
/// ISA holds them (AVX-512), then 4-row tiles, then a 2-row and a
/// 1-row skinny tile for the remainder — so one load of a window's panel
/// feeds up to eight rows, and decode panels (`rows < 4`) and prefill
/// tail rows stay vectorized.
/// The dual-accumulator 32-wide tiles are used when `L` allows it. The
/// other windows (ragged, odd `L`, gathers into the pad outside the
/// packed class) take the general `mt`-row scalar path. Write-back lands
/// at each window's original column span, so a permutation never escapes.
fn walk_panel(
    prep: &CpuPrepared,
    source: &RowSource<'_>,
    slices: Range<usize>,
    c_panel: &mut [f32],
) {
    let ss = &prep.staged;
    let sm = &ss.sm;
    let (w, n, l) = (sm.w(), sm.cols(), prep.cfg.l);
    let mk = prep.kernel;
    let rows = c_panel.len() / n;
    // A general tile never spans more rows than the panel holds.
    let mt = prep.tiling.mt.min(rows);
    let mut acc = vec![0f32; mt * l];
    // The widest tile the window admits: `L % 32 == 0` doubles the
    // per-broadcast FMA work through the dual-accumulator kernel.
    let wide = l.is_multiple_of(NW2);
    let (mut fast, mut general) = (Vec::new(), Vec::new());
    for s in slices {
        for bk in 0..ss.kblocks {
            let (u_lo, u_hi) = (bk * ss.ub, ((bk + 1) * ss.ub).min(w));
            fast.clear();
            general.clear();
            for pos in sm.slice_windows(s) {
                let win = Window::at(sm, pos, u_lo, u_hi);
                if ss.fast[pos * ss.kblocks + bk] {
                    fast.push(win);
                } else {
                    general.push(win);
                }
            }
            #[cfg(test)]
            instrument::FAST_BLOCKS.with(|c| c.set(c.get() + fast.len()));
            if !fast.is_empty() {
                let mut r0 = 0;
                if mk.tile_rows() >= MW_TALL {
                    while r0 + MW_TALL <= rows {
                        run_fast_rows::<MW_TALL>(source, mk, &fast, wide, r0, n, c_panel);
                        r0 += MW_TALL;
                    }
                }
                while r0 + MW <= rows {
                    run_fast_rows::<MW>(source, mk, &fast, wide, r0, n, c_panel);
                    r0 += MW;
                }
                if rows - r0 >= 2 {
                    run_fast_rows::<2>(source, mk, &fast, wide, r0, n, c_panel);
                    r0 += 2;
                }
                if r0 < rows {
                    run_fast_rows::<1>(source, mk, &fast, wide, r0, n, c_panel);
                }
            }
            for win in &general {
                run_general(source, win, mt, n, &mut acc, c_panel);
            }
        }
    }
}

/// One rung of the fast-path row ladder: `R` consecutive panel rows
/// through the vectorized `R×16` / `R×32` register tile across the fast
/// windows of one `(slice, k-block)` pair.
#[inline]
fn run_fast_rows<const R: usize>(
    source: &RowSource<'_>,
    mk: MicroKernel,
    windows: &[Window<'_>],
    wide: bool,
    r0: usize,
    n: usize,
    c_panel: &mut [f32],
) {
    #[cfg(test)]
    if R < MW {
        instrument::SKINNY_RUNGS.with(|c| c.set(c.get() + 1));
    } else if R == MW_TALL {
        instrument::TALL_RUNGS.with(|c| c.set(c.get() + 1));
    }
    let ar: [&[f32]; R] = std::array::from_fn(|i| source.row(r0 + i));
    for win in windows {
        if wide {
            for off in (0..win.lw).step_by(NW2) {
                let acc = mk.tile32(&ar, win.idx, win.bs, win.lw, off);
                add_tile(c_panel, &acc, r0, n, win.col + off);
            }
        } else {
            for off in (0..win.lw).step_by(NW) {
                let acc = mk.tile16(&ar, win.idx, win.bs, win.lw, off);
                add_tile(c_panel, &acc, r0, n, win.col + off);
            }
        }
    }
}

/// The general scalar path for one window of a `(slice, k-block)` pair,
/// `mt` rows at a time: each row's contribution accumulates from zero over
/// the k-block's compressed rows, skipping zero `A` operands, then lands
/// in `C` with one add per element.
fn run_general(
    source: &RowSource<'_>,
    win: &Window<'_>,
    mt: usize,
    n: usize,
    acc_scratch: &mut [f32],
    c_panel: &mut [f32],
) {
    let (rows, lw) = (c_panel.len() / n, win.lw);
    let mut r0 = 0;
    while r0 < rows {
        let rt = mt.min(rows - r0);
        let acc = &mut acc_scratch[..rt * lw];
        acc.fill(0.0);
        for (b_seg, &si) in win.bs.chunks(lw).zip(win.idx) {
            for (r, acc_row) in acc.chunks_mut(lw).enumerate() {
                let alpha = source.gather(r0 + r, si as usize);
                if alpha != 0.0 {
                    for (out, bv) in acc_row.iter_mut().zip(b_seg) {
                        *out += alpha * bv;
                    }
                }
            }
        }
        for (r, acc_row) in acc.chunks(lw).enumerate() {
            let at = (r0 + r) * n + win.col;
            for (out, add) in c_panel[at..at + lw].iter_mut().zip(acc_row) {
                *out += add;
            }
        }
        r0 += rt;
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

    /// `f` with the rayon pool pinned to one worker: the sequential run
    /// every parity check holds the all-worker kernel to, bit for bit.
    fn one_worker<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        pool.expect("a one-thread pool").install(f)
    }

    /// `f` pinned to one worker, and how far it moved each `instrument`
    /// counter, read on the thread that ran it.
    fn counted<R: Send, const K: usize>(
        counters: [&'static std::thread::LocalKey<std::cell::Cell<usize>>; K],
        f: impl FnOnce() -> R + Send,
    ) -> (R, [usize; K]) {
        one_worker(|| {
            let read = || counters.map(|c| c.with(|c| c.get()));
            let (before, out) = (read(), f());
            let after = read();
            (out, std::array::from_fn(|i| after[i] - before[i]))
        })
    }

    fn check(m: usize, k: usize, n: usize, c: NmConfig, tiling: CpuTiling) {
        let a = MatrixF32::random(m, k, 1);
        let b = MatrixF32::random(k, n, 2);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: 3 }).unwrap();
        let expect = spmm_reference(&a, &sb);
        let prep = CpuPrepared::new(&sb, tiling).unwrap();
        let got = spmm_cpu_prepared(&a, &prep).unwrap();
        assert!(
            got.allclose(&expect, 1e-3, 1e-4),
            "{c}: max diff {}",
            got.max_abs_diff(&expect)
        );
        let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
        assert_eq!(got.as_slice(), serial.as_slice(), "{c}: one worker");
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
        // 8:16 (50%) is below the 70% threshold: the direct-gather bound.
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
        // A host that reports no L2 maps the plan's blocking as is.
        let t = CpuTiling::derive_for_l2(p, c, 4096, None).unwrap();
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
    fn row_panel_is_sized_from_the_l2() {
        const L2: usize = 2 << 20;
        let c = cfg(2, 8, 32);
        let p = BlockingParams::small();
        let mb = |k, l2| CpuTiling::derive_for_l2(p, c, k, l2).unwrap().mb;
        // Half of a 2 MiB L2 holds 128 rows at k = 2048 (q/k/v/o,
        // gate/up) but only 47 at k = 5504 (down): the power of two below.
        assert_eq!(mb(2048, Some(L2)), 128);
        assert_eq!(mb(5504, Some(L2)), 32);
        // Never below the plan's ms, and the plan's ms without an L2.
        assert_eq!(mb(1 << 16, Some(L2)), p.ms);
        assert_eq!(mb(2048, None), p.ms);
        assert_eq!(mb(2048, Some(0)), p.ms);
        // The rule touches only the panel: nb, kb and mt stay the plan's.
        let (sized, plain) = (
            CpuTiling::derive_for_l2(p, c, 2048, Some(L2)).unwrap(),
            CpuTiling::derive_for_l2(p, c, 2048, None).unwrap(),
        );
        assert_eq!(
            CpuTiling {
                mb: plain.mb,
                ..sized
            },
            plain
        );
        // What this host reports, if anything, parses to a positive size.
        assert!(host_l2_bytes().is_none_or(|b| b > 0));
    }

    #[test]
    fn sysfs_cache_sizes_parse_strictly() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        for bad in ["", "K", "0K", "12Q", "-1K", "99999999999999999999G"] {
            assert_eq!(parse_cache_size(bad), None, "`{bad}`");
        }
    }

    #[test]
    fn v3_split_keeps_the_plans_decision_and_hands_every_worker_a_panel() {
        // A derived panel sized from a 2 MiB L2 (128 rows at k = 2048, 256
        // at k = 1024) over the plan's ms = 32: a 256-row prompt keeps row
        // panels on 2–8 workers, at least one per worker.
        for workers in 2..=8 {
            for mb in [128, 256] {
                let (panel, parts) = v3_split(mb, 32, 256, workers, 172);
                assert_eq!(parts, 1, "{workers} workers, mb {mb}: rows stay");
                assert!(256usize.div_ceil(panel) >= workers, "{workers}, {mb}");
                assert!((32..=mb).contains(&panel), "{workers}, {mb}: {panel}");
                assert_eq!(panel % MW_TALL, 0, "{workers}, {mb}: whole tall tiles");
            }
        }
        // Two workers: the 128-row panels the q/k/v/o/gate/up prompts run,
        // and the cut of a 256-row panel (k = 1024) taken whole as one.
        assert_eq!(v3_split(128, 32, 256, 2, 172), (128, 1));
        assert_eq!(v3_split(256, 32, 256, 2, 172), (128, 1));
        // The row-or-column decision is the plan's own, made on ms, and a
        // column split keeps the ms-row panels: at every m the L2 panel
        // changes nothing but the size of a row panel.
        for workers in 1..=8 {
            for m in 1..=300 {
                let plain = v3_split(32, 32, m, workers, 172);
                let sized = v3_split(256, 32, m, workers, 172);
                assert_eq!(sized.1, plain.1, "{workers} workers, m = {m}");
                if sized.1 > 1 {
                    assert_eq!(sized.0, plain.0, "{workers} workers, m = {m}");
                }
                assert!(sized.0 >= plain.0, "{workers} workers, m = {m}");
            }
        }
        // A measured or explicit tiling (floor = mb) runs its panel as
        // given: only the clamp to the call applies.
        for (mb, m, workers) in [
            (64usize, 256usize, 2),
            (512, 256, 2),
            (16, 20, 4),
            (8, 3, 2),
        ] {
            let panel = mb.min(m);
            let parts = if m.div_ceil(panel) >= workers {
                1
            } else {
                workers
            };
            assert_eq!(v3_split(mb, mb, m, workers, 172), (panel, parts));
        }
        // Decode keeps its one panel and its column ranges, at most one per
        // slice; one worker runs the whole panel.
        assert_eq!(v3_split(128, 32, 1, 4, 172), (1, 4));
        assert_eq!(v3_split(8, 8, 8, 2, 1), (8, 1));
        assert_eq!(v3_split(128, 32, 256, 1, 172), (128, 1));
    }

    #[test]
    fn cost_model_and_harness_base_run_the_same_prompt_cut() {
        // A cost-model preparation takes the plan's ms as its floor; the
        // measurement harness prepares its candidates as given, so its
        // base carries the cut the cost-model path runs at the plan's m.
        let c = cfg(2, 8, 32);
        let mk = MicroKernel::scalar();
        for (m, k, n) in [(256, 2048, 64), (512, 512, 64), (24, 512, 64)] {
            let plan = crate::plan::Planner::new(gpu_sim::device::a100_80g())
                .plan(m, n, k, c)
                .unwrap();
            let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, 131), c).unwrap();
            let cost = CpuPrepared::for_plan(&plan, &sb, Some(mk)).unwrap();
            assert_eq!(cost.min_panel(), plan.params.ms, "m = {m}");
            let base = crate::measure::tiling_candidates(&plan, &sb, false)[0];
            let given = CpuPrepared::with_kernel(&sb, base, mk).unwrap();
            assert_eq!(given.min_panel(), base.mb, "m = {m}");
            assert_eq!(given.split(m), cost.split(m), "m = {m}");
            // The plan's m is padded to 32 rows; the call clamps to its own.
            assert_eq!(
                base.mb.min(m),
                cost.split(m).0,
                "m = {m}: the base names its panel"
            );
        }
    }

    #[test]
    fn doctored_panel_rows_still_clamp_to_the_call() {
        // A cached tiling with an absurd `mb` (the plan-cache parser admits
        // integers up to 2^53) still cuts each call to at most `m` rows.
        let c = cfg(2, 8, 32);
        let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(64, 128, 111), c).unwrap();
        let t = CpuTiling {
            mb: 1 << 53,
            nb: 64,
            kb: 64,
            mt: 4,
        };
        let a = MatrixF32::random(40, 64, 112);
        let expect = spmm_reference(&a, &sb);
        let prep = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        for (mb, _) in [prep.split(40), one_worker(|| prep.split(40))] {
            assert!(mb <= 40, "{mb}");
        }
        let got = spmm_cpu_prepared(&a, &prep).unwrap();
        assert!(got.allclose(&expect, 1e-3, 1e-4));
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
        let b = MatrixF32::random(16, 12, 6);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let good = CpuTiling {
            mb: 8,
            nb: 8,
            kb: 8,
            mt: 4,
        };
        let prep = CpuPrepared::new(&sb, good).unwrap();
        let short_a = MatrixF32::random(8, 12, 7);
        assert!(matches!(
            spmm_cpu_prepared(&short_a, &prep),
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
                    CpuPrepared::new(&sb, bad),
                    Err(NmError::InvalidBlocking { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn prepared_is_reusable_across_activations() {
        let c = cfg(2, 8, 4);
        let b = MatrixF32::random(64, 32, 11);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let t = CpuTiling::auto(c, 16, 32, 64).unwrap();
        let prep = CpuPrepared::new(&sb, t).unwrap();
        for seed in 0..3u64 {
            let a = MatrixF32::random(16, 64, 20 + seed);
            let got = spmm_cpu_prepared(&a, &prep).unwrap();
            assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        }
    }

    #[test]
    fn tail_k_block_keeps_the_fast_path_when_gathers_are_in_bounds() {
        // k = 40 is a multiple of M = 8 but not of kb = 32: the coarse
        // `(bk + 1) * kb <= k` test used to kick the entire final k-block
        // (dense rows 32..40) off the fast path even though every gather
        // index is < k. The per-block bound keeps it vectorized. 4:8 (50%)
        // is outside the packed class, so the bound applies.
        let c = cfg(4, 8, 16);
        assert!(!uses_packing(c));
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
        // Pinned to one worker, every block is counted on one thread.
        let prep = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        let run = || spmm_cpu_prepared(&a, &prep).unwrap();
        let (got, [fast_blocks]) = counted([&instrument::FAST_BLOCKS], run);
        assert!(
            got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4),
            "tail-block result must stay correct (max diff {})",
            got.max_abs_diff(&spmm_reference(&a, &sb))
        );
        // Two k-blocks (0..32 and the 32..40 tail) × two windows, one
        // column block: every pair must have gone through the micro-kernel.
        assert_eq!(
            fast_blocks, 4,
            "the final partial k-block must keep the fast path"
        );
    }

    #[test]
    fn padded_tail_window_still_leaves_the_fast_path() {
        // k = 36 is NOT a multiple of M = 8: the final window's indices can
        // point into the padded range [36, 40) — outside the packed class
        // (4:8 is 50% sparse) a tail block whose gathers reach the pad must
        // fall back to the general path. Random pruning (unlike
        // magnitude, which never picks a zero padded lane) makes that
        // happen; the assertion adapts in case a reseed changes the draw.
        let c = cfg(4, 8, 16);
        assert!(!uses_packing(c));
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
        let tail_hits_pad = (sb.w() - c.n..sb.w())
            .any(|u| (0..sb.q()).any(|j| u / c.n * c.m + d.get(u, j) as usize >= k));
        let prep = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        let run = || spmm_cpu_prepared(&a, &prep).unwrap();
        let (got, [fast_blocks]) = counted([&instrument::FAST_BLOCKS], run);
        assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        // Two windows per k-block; the tail block's both fall back together.
        let expected = if tail_hits_pad { 2 } else { 4 };
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
        // The staged classification checks the final partial k-block's
        // gathers index by index: in bounds (k = 40, a multiple of M) it
        // stays fast; one gather into the pad (k = 36) demotes the block,
        // unless the packed class reads the pad as zeros.
        let c = cfg(2, 8, 16);
        let flags = |k: usize, seed: u64, packed: bool| {
            let b = MatrixF32::random(k, 32, seed);
            let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed }).unwrap();
            fast_flags(&sb, 32, 32, packed)
        };
        // (window, k-block) pairs `j * 2 + bk`: two windows, two k-blocks.
        assert_eq!(flags(40, 23, false), [true; 4]);
        assert_eq!(flags(36, 33, false), [true, false, true, false]);
        assert_eq!(flags(36, 33, true), [true; 4]);
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
        let prep = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        assert_eq!(prep.isa(), Isa::Scalar);
        // The default constructor picks a host-supported kernel too.
        let auto = CpuPrepared::new(&sb, t).unwrap();
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
        // The decode regime: 1–5 activation rows through every row rung
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
    fn tall_rung_runs_where_the_kernel_holds_it() {
        // The 8→4→2→1 ladder on every available ISA: outputs bit-identical
        // to the same preparation pinned to one worker at each m, within
        // tolerance of the reference, and the tall rung counted only on
        // kernels that report 8-row tiles (AVX-512).
        let c = cfg(2, 8, 32);
        let t = CpuTiling {
            mb: 64,
            nb: 64,
            kb: 64,
            mt: 4,
        };
        let (k, n) = (128, 128);
        let sb = NmSparseMatrix::prune(
            &MatrixF32::random(k, n, 121),
            c,
            PrunePolicy::Random { seed: 122 },
        )
        .unwrap();
        for mk in MicroKernel::available() {
            let prep = CpuPrepared::with_kernel(&sb, t, mk).unwrap();
            for m in [8, 9, 15, 16, 23, 130] {
                let a = MatrixF32::random(m, k, 123 + m as u64);
                let run = || spmm_cpu_prepared(&a, &prep).unwrap();
                let (want, [tall]) = counted([&instrument::TALL_RUNGS], run);
                // One panel-row walk per 64-row panel: two column blocks ×
                // two k-blocks, each running every whole 8-row group.
                let groups: usize = (0..m.div_ceil(64))
                    .map(|p| (m - p * 64).min(64) / MW_TALL)
                    .sum();
                let want_tall = if mk.tile_rows() == MW_TALL {
                    4 * groups
                } else {
                    0
                };
                assert_eq!(tall, want_tall, "{mk} m = {m}: tall rungs");
                assert!(
                    want.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4),
                    "{mk} m = {m}"
                );
                let got = spmm_cpu_prepared(&a, &prep).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "{mk} m = {m}: one worker");
            }
        }
        #[cfg(target_arch = "x86_64")]
        if let Ok(avx2) = MicroKernel::for_isa(Isa::Avx2) {
            assert_eq!(avx2.tile_rows(), MW, "AVX2 must not take the tall rung");
        }
        assert_eq!(MicroKernel::scalar().tile_rows(), MW);
    }

    #[test]
    fn tall_rung_gives_every_row_what_two_four_row_rungs_give() {
        // The 8-row rung run directly on every available kernel — the
        // scalar one included, so a host without AVX-512 still executes
        // it — over every fast window of a staged layer: bit-identical to
        // two 4-row rungs, at both tile widths.
        let t = CpuTiling {
            mb: 64,
            nb: 64,
            kb: 64,
            mt: 4,
        };
        let (k, n) = (128, 128);
        for c in [cfg(2, 8, 32), cfg(2, 8, 16)] {
            let sb = NmSparseMatrix::prune(
                &MatrixF32::random(k, n, 141),
                c,
                PrunePolicy::Random { seed: 142 },
            )
            .unwrap();
            let a = MatrixF32::random(MW_TALL, k, 143);
            let source = RowSource {
                a: a.as_slice(),
                stride: k,
                i0: 0,
            };
            let wide = c.l.is_multiple_of(NW2);
            for mk in MicroKernel::available() {
                let prep = CpuPrepared::with_kernel(&sb, t, mk).unwrap();
                let ss = &prep.staged;
                let (mut tall, mut four) = (vec![0f32; MW_TALL * n], vec![0f32; MW_TALL * n]);
                let mut windows = 0;
                for s in 0..ss.sm.slices() {
                    for bk in 0..ss.kblocks {
                        let (u_lo, u_hi) = (bk * ss.ub, ((bk + 1) * ss.ub).min(ss.sm.w()));
                        let fast: Vec<_> = ss
                            .sm
                            .slice_windows(s)
                            .filter(|&pos| ss.fast[pos * ss.kblocks + bk])
                            .map(|pos| Window::at(&ss.sm, pos, u_lo, u_hi))
                            .collect();
                        windows += fast.len();
                        run_fast_rows::<MW_TALL>(&source, mk, &fast, wide, 0, n, &mut tall);
                        run_fast_rows::<MW>(&source, mk, &fast, wide, 0, n, &mut four);
                        run_fast_rows::<MW>(&source, mk, &fast, wide, MW, n, &mut four);
                    }
                }
                assert!(windows > 0, "{mk} L = {}: no fast windows", c.l);
                assert!(tall.iter().any(|&x| x != 0.0), "{mk} L = {}", c.l);
                assert_eq!(tall, four, "{mk} L = {}", c.l);
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
        let prep = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        for (m, want_skinny) in [(1, 2), (2, 2), (3, 4), (6, 2)] {
            let a = MatrixF32::random(m, k, 51);
            let counters = [&instrument::FAST_BLOCKS, &instrument::SKINNY_RUNGS];
            let run = || spmm_cpu_prepared(&a, &prep).unwrap();
            let (got, [fast, skinny]) = counted(counters, run);
            assert!(got.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
            // One column block of two windows × two k-blocks, all fast.
            assert_eq!(fast, 4, "m = {m}: every pair must classify fast");
            // m=1 → one 1-row rung per block; m=2 → one 2-row rung; m=3 →
            // a 2-row and a 1-row rung; m=6 → one 4-row tile + a 2-row rung.
            assert_eq!(skinny, want_skinny, "m = {m}: skinny-rung count");
        }
    }

    /// Sliced and row-major preparations of the same operand must produce
    /// bit-identical outputs — not merely allclose — because every layout
    /// carries the same op-flavor per window, on every worker count; and
    /// both must match the reference. Each layout runs on all workers
    /// against row-major pinned to one.
    fn check_sliced_bitwise(m: usize, k: usize, n: usize, c: NmConfig, t: CpuTiling, seed: u64) {
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed + 1);
        let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed: seed + 2 }).unwrap();
        let expect = spmm_reference(&a, &sb);
        let rm = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        let want = one_worker(|| spmm_cpu_prepared(&a, &rm)).unwrap();
        assert!(
            want.allclose(&expect, 1e-3, 1e-4),
            "{c} m = {m}: row-major must match the reference"
        );
        for format in [
            StorageFormat::RowMajor,
            StorageFormat::Sliced(SlicedLayout::new(1, 1).unwrap()),
            StorageFormat::Sliced(SlicedLayout::new(4, 4).unwrap()),
            StorageFormat::Sliced(SlicedLayout::DEFAULT),
        ] {
            let prep = CpuPrepared::with_format(&sb, t, MicroKernel::scalar(), format).unwrap();
            assert_eq!(prep.format(), format);
            let got = spmm_cpu_prepared(&a, &prep).unwrap();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "{c} {format}: bit-identical to row-major on one worker"
            );
        }
    }

    #[test]
    fn sliced_is_bit_identical_across_levels_and_worker_counts() {
        for c in NmConfig::paper_levels(16) {
            let t = CpuTiling::auto(c, 4, 64, 128).unwrap();
            check_sliced_bitwise(1, 128, 64, c, t, 71);
            check_sliced_bitwise(3, 128, 64, c, t, 73);
            // Multi-panel rows: 4-row panels 4 + 4 + 3, so every rung of
            // the ladder runs on each layout.
            check_sliced_bitwise(11, 128, 64, c, CpuTiling { mb: 4, ..t }, 75);
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
        // Three 8-row panels (8 + 8 + 3) on the ragged shapes.
        check_sliced_bitwise(19, 36, 32, c16, t16, 87);
        check_sliced_bitwise(
            37,
            67,
            45,
            c4,
            CpuTiling {
                mb: 16,
                nb: 8,
                kb: 32,
                mt: 4,
            },
            89,
        );
        // The packed class keeps that tail block on the fast path: both
        // k-blocks run the micro-tiles, reading the pad as zeros.
        let a = MatrixF32::random(5, 36, 83);
        let b = MatrixF32::random(36, 32, 84);
        let sb = NmSparseMatrix::prune(&b, c16, PrunePolicy::Random { seed: 85 }).unwrap();
        let d = sb.indices();
        assert!(
            (8..sb.w())
                .any(|u| (0..sb.q()).any(|j| u / c16.n * c16.m + d.get(u, j) as usize >= 36)),
            "setup: the tail block must gather from the pad"
        );
        let prep = CpuPrepared::with_kernel(&sb, t16, MicroKernel::scalar()).unwrap();
        let run = || spmm_cpu_prepared(&a, &prep).unwrap();
        let (got, [fast_blocks]) = counted([&instrument::FAST_BLOCKS], run);
        assert_eq!(
            fast_blocks, 4,
            "2:8 must keep the pad-reaching tail block fast"
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
            &sb,
            t,
            MicroKernel::scalar(),
            StorageFormat::Sliced(SlicedLayout::DEFAULT),
        )
        .unwrap();
        let x = MatrixF32::random(1, k, 92);
        let run = || spmv_cpu_prepared(x.row(0), &prep).unwrap();
        let (y, [fast]) = counted([&instrument::FAST_BLOCKS], run);
        // 2 windows × 2 k-blocks, all block-aligned: every pair is fast.
        assert_eq!(fast, 4, "all sliced (window, k-block) pairs must be fast");
        let rm = CpuPrepared::with_kernel(&sb, t, MicroKernel::scalar()).unwrap();
        let want = spmv_cpu_prepared(x.row(0), &rm).unwrap();
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
        let prep = CpuPrepared::new(&sb, t).unwrap();
        let y = spmv_cpu_prepared(x.row(0), &prep).unwrap();
        assert_eq!(
            y,
            one_worker(|| spmv_cpu_prepared(x.row(0), &prep)).unwrap()
        );
        let got = MatrixF32::from_vec(1, n, y);
        assert!(
            got.allclose(&expect, 1e-3, 1e-4),
            "max diff {}",
            got.max_abs_diff(&expect)
        );
        assert!(matches!(
            spmv_cpu_prepared(&x.row(0)[..k - 1], &prep),
            Err(NmError::DimensionMismatch { .. })
        ));
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
            let prep = CpuPrepared::with_format(&sb, t, MicroKernel::scalar(), format).unwrap();
            for m in [1, 3, 8] {
                let a = MatrixF32::random(m, k, 102);
                let before = splits();
                let got = spmm_cpu_prepared(&a, &prep).unwrap();
                assert_eq!(
                    splits() - before,
                    usize::from(split_expected),
                    "{format} m = {m}: one row panel must split across columns"
                );
                let want = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "{format} m = {m}");
            }
            // Enough row panels for every worker: the row panels stay.
            let before = splits();
            spmm_cpu_prepared(&MatrixF32::random(256, k, 105), &prep).unwrap();
            assert_eq!(splits() - before, 0, "{format}: m = 256 keeps its rows");
            // One worker never splits.
            assert_eq!(one_worker(|| prep.split(1)).1, 1);
        }

        // A layer with one column block (n = nb) has no second range to
        // hand out, so m = 1 runs its single panel on the calling thread.
        let narrow = NmSparseMatrix::prune_magnitude(&MatrixF32::random(256, 64, 103), c).unwrap();
        let prep = CpuPrepared::with_kernel(&narrow, t, MicroKernel::scalar()).unwrap();
        assert_eq!(prep.split(1).1, 1);
        let before = splits();
        spmm_cpu_prepared(&MatrixF32::random(1, 256, 104), &prep).unwrap();
        assert_eq!(splits() - before, 0, "a one-block layer must stay unsplit");
    }
}
