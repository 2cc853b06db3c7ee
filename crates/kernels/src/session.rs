//! The prepared-session API: plan-once / prepare-once layer handles — the
//! single public execution surface of the workspace.
//!
//! ## Why a session
//!
//! The paper's performance accounting hinges on the **offline/online
//! split**: layout transformation (`transformLayout`) and, on the GPU,
//! `col_info` packing are one-time offline work, amortized over every
//! inference call that follows. This module is the object that *owns*
//! that amortization:
//!
//! * [`SessionBuilder`] configures the execution context once — device
//!   model, micro-kernel pin, worker thread cap, persistent plan-cache
//!   path, measured-autotune mode.
//! * [`Session::load`] takes a pruned weight matrix and does **all** the
//!   offline work in one place: it plans (strategy decision + exhaustive
//!   autotune, memoized in the session's [`PlanCache`]) and stages the one
//!   executing kernel ([`CpuPrepared::for_plan`] — `B′` staging,
//!   micro-kernel dispatch). The result is a [`PreparedLayer`] handle.
//! * [`PreparedLayer::forward`] / [`PreparedLayer::forward_vec`] are the
//!   **online** path: they touch none of the offline work again — every
//!   call runs the owned staging. The
//!   [`cpu::offline_staging_passes`](crate::cpu::offline_staging_passes)
//!   probe lets callers prove that, not just trust it.
//! * [`Session::load_model`] loads a whole stack of layers (a Llama
//!   sweep's five linears, a transformer block's three matmuls) as one
//!   group, reporting how many plans came from the shared cache.
//!
//! The simulator's prediction for a layer is not part of a load: it is
//! [`Plan::predict`], called on demand beside the kernel that runs.
//!
//! ## Whether a load measures
//!
//! The session's autotune mode alone decides ([`SessionBuilder::autotune`]):
//! under `Off` every load executes the cost-model plan as-is; under
//! `Quick`/`Full` every load through [`Session::load_with`] takes the
//! measured path; [`Session::load_planned`] brings its own plan and never
//! measures.
//!
//! ## What lands in `wall_seconds`
//!
//! [`ExecRun::wall_seconds`] measures the **online kernel only**: the
//! clock starts after `load` finished staging. One cost is deliberately
//! *inside* the timed window because it genuinely recurs per call: the
//! kernel's zero-padded copy of `A` when `k` is not a multiple of `M` (it
//! otherwise gathers `A` in place). Everything derived from the weights
//! alone (blocking derivation, `B′` staging, ISA dispatch) is paid once in
//! `load` and never again, mirroring how the paper excludes its
//! pre-processing from kernel time.
//!
//! ## One override per setting
//!
//! Each setting has one way to override it. The session's settings come
//! from the builder alone; a layer's storage format from
//! [`LoadSpec::storage`]. The one environment pin is `NM_SPMM_ISA`, read
//! by [`MicroKernel::select`] when the builder sets no
//! [`SessionBuilder::micro_kernel`] (tested in `tests/env_overrides.rs`).
//!
//! ## Concurrency
//!
//! [`PreparedLayer`] is `Send + Sync`: one prepared handle can serve
//! concurrent callers (`forward` takes `&self`), which is the shape a
//! serving front-end needs. The kernel parallelizes inside each call, by
//! row panels or by column ranges; a server batches by stacking rows into
//! one call, not by fanning calls out.

use crate::backend::{BackendKind, ExecRun};
use crate::cpu::CpuPrepared;
use crate::measure::{self, AutotuneMode, MeasureSpec};
use crate::nm::NmVersion;
use crate::plan::{CacheStats, Plan, PlanCache, PlanHost, Planner, ShapeClass};
use crate::simd::{Isa, MicroKernel};
use gpu_sim::device::DeviceConfig;
#[cfg(doc)]
use nm_core::error::NmError;
use nm_core::error::Result;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sliced::StorageFormat;
use nm_core::sparse::NmSparseMatrix;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration for a [`Session`] — the one-stop execution context.
///
/// ```
/// use nm_kernels::session::SessionBuilder;
/// use nm_kernels::AutotuneMode;
/// use gpu_sim::device::a100_80g;
///
/// let session = SessionBuilder::new(a100_80g())
///     .autotune(AutotuneMode::Off)
///     .build()
///     .expect("session");
/// assert_eq!(session.autotune(), AutotuneMode::Off);
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    device: DeviceConfig,
    backend: BackendKind,
    kernel: Option<MicroKernel>,
    threads: Option<usize>,
    cache_path: Option<PathBuf>,
    autotune: AutotuneMode,
}

impl SessionBuilder {
    /// A builder for `device` with the defaults: runtime micro-kernel
    /// dispatch, uncapped workers, in-memory plan cache, measured
    /// autotuning off.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: BackendKind::Cpu(NmVersion::V3),
            kernel: None,
            threads: None,
            cache_path: None,
            autotune: AutotuneMode::Off,
        }
    }

    /// The kernel layers run on. `Cpu(V3)`, the default, is the only one
    /// [`SessionBuilder::build`] accepts: the CPU runs one kernel.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Pin every preparation to one micro-kernel instead of
    /// [`MicroKernel::select`]'s per-load dispatch. A `MicroKernel` exists
    /// only for an ISA this host runs ([`MicroKernel::for_isa`]), so the
    /// pin cannot name a foreign one.
    pub fn micro_kernel(mut self, kernel: MicroKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Cap the rayon worker fan-out (V3's row panels or column ranges).
    ///
    /// Best-effort: the cap installs through rayon's first-wins global
    /// pool initialization, so if the pool is already configured the
    /// existing setting stays — check [`Session::threads`] for what
    /// actually applies.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Back the plan cache with a JSON file: hydrated at build time when
    /// it exists (a malformed file or a newer format version is a build
    /// error, not silently ignored; an older format version loads empty,
    /// so its problems re-plan), written back by [`Session::save`].
    pub fn plan_cache(mut self, path: impl AsRef<Path>) -> Self {
        self.cache_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Whether [`Session::load`] measures: `Off` executes the cost-model
    /// plan as-is, `Quick`/`Full` run the [`measure`](mod@crate::measure)
    /// harness on a cache miss and persist the measured-best tiling and
    /// storage format through the plan cache, keyed by `(host ISA, thread
    /// count, shape class, N:M)`, and stage the kernel on them. Off by
    /// default.
    pub fn autotune(mut self, mode: AutotuneMode) -> Self {
        self.autotune = mode;
        self
    }

    /// Build the session.
    ///
    /// # Errors
    /// [`NmError::Unsupported`] when [`SessionBuilder::backend`] names
    /// `Cpu(V1)` or `Cpu(V2)`, and [`NmError::Persist`] when the
    /// plan-cache file exists but cannot be parsed.
    pub fn build(self) -> Result<Session> {
        self.backend.supported()?;
        if let Some(threads) = self.threads {
            // First-wins, like real rayon: a pool configured earlier in
            // the process keeps its setting.
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
        }
        let cache = match &self.cache_path {
            Some(path) if path.exists() => PlanCache::load(path)?,
            _ => PlanCache::new(),
        };
        Ok(Session {
            planner: Planner::with_cache(self.device, cache),
            cache_path: self.cache_path,
            kernel: self.kernel,
            autotune: self.autotune,
        })
    }
}

/// A typed description of **one layer load** — what [`Session::load_with`]
/// consumes, and what the `load` convenience builds behind the scenes.
///
/// A spec starts from the one piece of information every load needs — the
/// activation row count — and layers optional overrides on top:
///
/// * [`LoadSpec::shape_class`] — plan under an explicit
///   [`ShapeClass`] instead of the one `rows` classifies to: a layer
///   serving autoregressive decode can be planned on the decode band
///   (`ShapeClass::Decode(m)`, `m ≤ DECODE_MAX_ROWS`) even though it was
///   loaded for a prefill row count, and vice versa.
/// * [`LoadSpec::storage`] — pin this layer's `B′` storage format.
///
/// A load against an externally resolved [`Plan`] skips the spec
/// altogether: [`Session::load_planned`].
///
/// ```
/// use nm_kernels::session::LoadSpec;
/// use nm_kernels::ShapeClass;
///
/// let spec = LoadSpec::rows(64).shape_class(ShapeClass::Decode(4));
/// ```
#[derive(Debug, Clone)]
pub struct LoadSpec {
    rows: usize,
    shape_class: Option<ShapeClass>,
    storage: Option<StorageFormat>,
}

impl LoadSpec {
    /// A spec for activations of `rows` rows, with every override unset:
    /// shape class derived from `rows`, planning through the cache.
    pub fn rows(rows: usize) -> Self {
        Self {
            rows,
            shape_class: None,
            storage: None,
        }
    }

    /// Plan under an explicit shape class instead of the one `rows`
    /// classifies to (validated by the planner; `Decode(m)` must have
    /// `m` in `1..=DECODE_MAX_ROWS`).
    pub fn shape_class(mut self, class: ShapeClass) -> Self {
        self.shape_class = Some(class);
        self
    }

    /// Pin this layer's `B′` storage format instead of the
    /// planned/measured lane. A sliced pin plans (and caches) on its own
    /// format lane; a row-major pin shares the auto lane's plan but
    /// always stages the paper's layout.
    pub fn storage(mut self, format: StorageFormat) -> Self {
        self.storage = Some(format);
        self
    }
}

/// An execution context: planner + plan cache (and the file it saves to)
/// + kernel configuration.
///
/// Sessions hand out [`PreparedLayer`] handles via [`Session::load_with`]
/// (and the `load` convenience built on it) or, against a plan already
/// in hand, [`Session::load_planned`]; estimate-only consumers can also
/// call [`Session::plan`] directly.
#[derive(Debug)]
pub struct Session {
    planner: Planner,
    cache_path: Option<PathBuf>,
    kernel: Option<MicroKernel>,
    autotune: AutotuneMode,
}

impl Session {
    /// Shorthand for [`SessionBuilder::new`].
    pub fn builder(device: DeviceConfig) -> SessionBuilder {
        SessionBuilder::new(device)
    }

    /// The device this session plans for.
    pub fn device(&self) -> &DeviceConfig {
        self.planner.device()
    }

    /// The worker threads parallel execution fans out to at most.
    pub fn threads(&self) -> usize {
        rayon::current_num_threads()
    }

    /// The measured-autotuning mode every [`Session::load`] applies.
    pub fn autotune(&self) -> AutotuneMode {
        self.autotune
    }

    /// Plan a problem through the shared cache (strategy decision +
    /// exhaustive autotune on a miss, O(1) on a hit). The estimate-only
    /// entry point, on the auto (row-major) storage lane that an unpinned
    /// [`Session::load`] plans on.
    pub fn plan(&mut self, m: usize, n: usize, k: usize, cfg: NmConfig) -> Result<Plan> {
        self.plan_as(ShapeClass::of_rows(m), m, n, k, cfg)
    }

    /// As [`Session::plan`], but under an explicit [`ShapeClass`] —
    /// see [`Planner::plan_as`].
    pub fn plan_as(
        &mut self,
        class: ShapeClass,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        self.planner.plan_as(class, m, n, k, cfg)
    }

    /// Plan-cache counters — entries, hits, misses.
    pub fn stats(&self) -> CacheStats {
        self.planner.cache().stats()
    }

    /// Write the plan cache back to its backing file; `false` (and nothing
    /// written) when the session has none.
    pub fn save(&self) -> Result<bool> {
        let Some(path) = &self.cache_path else {
            return Ok(false);
        };
        self.planner.cache().save(path)?;
        Ok(true)
    }

    /// Do **all** the offline work for one layer, once, as described by a
    /// typed [`LoadSpec`]: plan and stage the kernel. The returned handle
    /// amortizes every one of those costs across its `forward` calls.
    ///
    /// This is the **single planning load entry point**; [`Session::load`]
    /// is a thin convenience over it, and [`Session::load_planned`] is the
    /// staging step it ends in. The spec resolves in this order:
    ///
    /// 1. The layer is planned through the shared cache — under the
    ///    [`LoadSpec::shape_class`] override when one is set, else under
    ///    the class `rows` derives.
    /// 2. A session with [`SessionBuilder::autotune`] `Quick`/`Full`
    ///    additionally takes the measured-autotune pass: consult the plan
    ///    cache for a measured entry scoped to this host (ISA + thread
    ///    count); on a miss, run the [`measure`](mod@crate::measure)
    ///    harness, persist the winner through the cache's backing file
    ///    (when one is configured), and stage the kernel on the
    ///    measured-best tiling and storage format.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] when the spec names an out-of-band decode
    /// class; planning failures; [`NmError::InvalidBlocking`] when the
    /// tuned blocking cannot drive the kernel's tiles; the error of
    /// [`MicroKernel::select`] when `NM_SPMM_ISA` is malformed or names an
    /// ISA this host cannot execute.
    pub fn load_with(
        &mut self,
        weights: impl Into<Arc<NmSparseMatrix>>,
        spec: LoadSpec,
    ) -> Result<PreparedLayer> {
        let weights = weights.into();
        let (n, k, cfg) = (weights.cols(), weights.k(), weights.cfg());
        // A pinned format plans on that format's lane (a sliced pin gets
        // its own cache identity; a row-major pin shares the auto lane).
        let class = spec
            .shape_class
            .unwrap_or_else(|| ShapeClass::of_rows(spec.rows));
        let storage = spec.storage.unwrap_or(StorageFormat::RowMajor);
        let plan = self
            .planner
            .plan_stored(class, storage, spec.rows, n, k, cfg)?;
        match MeasureSpec::for_mode(self.autotune) {
            Some(mspec) => self.load_measured(plan, weights, spec.rows, spec.storage, mspec),
            None => self.load_planned(plan, weights),
        }
    }

    /// Convenience for the common case: [`Session::load_with`] under a
    /// bare `LoadSpec::rows(rows)` — derived shape class, measured
    /// autotuning when the session enables it.
    pub fn load(
        &mut self,
        weights: impl Into<Arc<NmSparseMatrix>>,
        rows: usize,
    ) -> Result<PreparedLayer> {
        self.load_with(weights, LoadSpec::rows(rows))
    }

    /// The measured path of [`Session::load_with`]: cache consult →
    /// measure on miss → persist → stage on the measured winner of the
    /// cost-model plan `base`.
    fn load_measured(
        &mut self,
        base: Plan,
        weights: Arc<NmSparseMatrix>,
        rows: usize,
        pin: Option<StorageFormat>,
        spec: MeasureSpec,
    ) -> Result<PreparedLayer> {
        // Resolve the micro-kernel first: the host ISA is part of the
        // measured cache key, so a cache file moved to a different
        // machine (or a different worker-count run) misses instead of
        // replaying foreign evidence.
        let kernel = self.kernel.map_or_else(MicroKernel::select, Ok)?;
        let host = PlanHost {
            isa: kernel.isa().name().to_string(),
            threads: rayon::current_num_threads(),
        };
        let key = base.key.for_host(host.clone());
        let mut plan = match self.planner.lookup(&key) {
            Some(plan) => plan,
            None => {
                let outcome = measure::measure(&base, &weights, rows, Some(kernel), spec)?;
                let plan = base.with_measured(host, outcome.best)?;
                self.planner.insert(plan.clone());
                // Persist the (comparatively expensive) evidence through
                // the same path analytic plans use; no-op when the
                // session has no backing file.
                self.save()?;
                plan
            }
        };
        // A row-major pin shares the auto lane's measured entry (the
        // persisted evidence stays the genuine auto winner), but this
        // load must stage the pinned layout: rewrite the local copy's
        // measured format before preparing. Tile geometry is
        // format-independent, so the measured tiling stays valid. A
        // sliced pin already restricted measurement to its format.
        if let (Some(f), Some(m)) = (pin, plan.measured.as_mut()) {
            m.storage = f;
        }
        self.load_planned(plan, weights)
    }

    /// The plan escape hatch: stage a layer against an **explicitly
    /// provided** plan, bypassing the planner (and therefore the cache
    /// counters and measurement) entirely — callable on `&self` since
    /// nothing is planned.
    ///
    /// The weights need not match the plan's shape class — the kernel
    /// re-derives its tiling from the actual dimensions — which lets a
    /// sweep plan at full model size but execute a scaled-down instance,
    /// keeping its cache accounting untouched.
    pub fn load_planned(
        &self,
        plan: Plan,
        weights: impl Into<Arc<NmSparseMatrix>>,
    ) -> Result<PreparedLayer> {
        let weights = weights.into();
        let state = CpuPrepared::for_plan(&plan, &weights, self.kernel)?;
        Ok(PreparedLayer {
            plan,
            state,
            weights,
        })
    }

    /// Load a whole model's layers as one group through the shared plan
    /// cache. Layers with the same shape class and sparsity share one
    /// plan (Llama's `mlp.gate`/`mlp.up`, for instance); the returned
    /// [`PreparedModel`] reports the hit/miss split so callers can prove
    /// the sharing happened.
    ///
    /// Loading stops at the first failing layer — nothing is returned in
    /// that case, so there are no half-prepared groups to reason about.
    pub fn load_model<W: Into<Arc<NmSparseMatrix>>>(
        &mut self,
        layers: Vec<W>,
        rows: usize,
    ) -> Result<PreparedModel> {
        let before = self.stats();
        let prepared: Vec<PreparedLayer> = layers
            .into_iter()
            .map(|weights| self.load(weights, rows))
            .collect::<Result<_>>()?;
        let after = self.stats();
        Ok(PreparedModel {
            layers: prepared,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
        })
    }
}

/// One layer, fully prepared: the plan, the kernel's staging — which holds
/// everything `forward` reads, so nothing is rebuilt per call — and the
/// (shared, via `Arc`) weights that [`PreparedLayer::weights`] hands back.
///
/// The weights' window-major value panels are the only resident copy of
/// `B′`: the staging owns its gather table and window permutation and
/// borrows the panels. Loading the same weights several times — other
/// formats, a decode stack, measured candidates — copies no values.
///
/// The handle is `Send + Sync`; `forward` takes `&self`, so one prepared
/// layer can serve concurrent callers (e.g. a serving front-end's worker
/// threads) without cloning any staged data.
pub struct PreparedLayer {
    plan: Plan,
    state: CpuPrepared,
    weights: Arc<NmSparseMatrix>,
}

impl PreparedLayer {
    /// The resolved plan this layer executes under.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The kernel this layer runs on: always the native CPU kernel.
    pub fn backend(&self) -> BackendKind {
        BackendKind::Cpu(NmVersion::V3)
    }

    /// The compressed weights this layer multiplies by.
    pub fn weights(&self) -> &NmSparseMatrix {
        &self.weights
    }

    /// The micro-kernel ISA the preparation dispatched to.
    pub fn isa(&self) -> Isa {
        self.state.isa()
    }

    /// The `B′` storage format the preparation actually staged (always
    /// `Some`). `forward` results are bit-identical across formats — this
    /// reports which layout the planned/measured/pinned resolution landed
    /// on.
    pub fn storage(&self) -> Option<StorageFormat> {
        Some(self.state.format())
    }

    /// The online path: multiply one activation batch,
    /// `C[rows][n] = A[rows][k] ⊛ (B′, D)`, reusing every piece of
    /// offline work [`Session::load`] staged. `wall_seconds` on the
    /// returned run covers exactly this call.
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] when `a.cols()` disagrees with the
    /// weights' reduction depth — a structured error in every build
    /// profile, never a silent garbage product.
    pub fn forward(&self, a: &MatrixF32) -> Result<ExecRun> {
        self.state.run(a)
    }

    /// The decode entry point: multiply one activation **vector**,
    /// `y[n] = x[k] ⊛ (B′, D)` — the prepared SpMV path.
    ///
    /// The exact staging `forward` uses serves this call (the one-row rung
    /// of the vectorized register-tile ladder streams the same staged
    /// `B′`), so a layer prepared once — e.g. for a prefill shape — serves
    /// autoregressive decode with **zero** additional offline work; only
    /// the `1 × k` operand view is built per call.
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] when `x.len()` disagrees with the
    /// weights' reduction depth.
    pub fn forward_vec(&self, x: &[f32]) -> Result<ExecRun> {
        let a = MatrixF32::from_vec(1, x.len(), x.to_vec());
        self.forward(&a)
    }
}

impl std::fmt::Debug for PreparedLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLayer")
            .field("plan", &self.plan.key)
            .field("isa", &self.isa())
            .field("k", &self.weights.k())
            .field("n", &self.weights.cols())
            .finish_non_exhaustive()
    }
}

/// A group of prepared layers loaded as one unit by
/// [`Session::load_model`], with the plan-cache accounting for the
/// group's planning pass.
#[derive(Debug)]
pub struct PreparedModel {
    layers: Vec<PreparedLayer>,
    cache_hits: u64,
    cache_misses: u64,
}

impl PreparedModel {
    /// The prepared layers, in load order.
    pub fn layers(&self) -> &[PreparedLayer] {
        &self.layers
    }

    /// One layer by position.
    pub fn layer(&self, i: usize) -> &PreparedLayer {
        &self.layers[i]
    }

    /// Number of layers in the group.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Plans served from the shared cache during this group's planning
    /// pass (layers sharing a shape class and sparsity level hit).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Plans that required a fresh strategy + autotune run.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Consume the group into its layers.
    pub fn into_layers(self) -> Vec<PreparedLayer> {
        self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a100_80g;
    use nm_core::error::NmError;
    use nm_core::prune::PrunePolicy;
    use nm_core::spmm::spmm_reference;

    fn session() -> Session {
        SessionBuilder::new(a100_80g()).build().unwrap()
    }

    fn weights(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
        let b = MatrixF32::random(k, n, seed);
        NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: seed ^ 1 }).unwrap()
    }

    #[test]
    fn every_backend_forwards_to_the_reference_result() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let sb = weights(128, 96, cfg, 7);
        let a = MatrixF32::random(64, 128, 8);
        let expect = spmm_reference(&a, &sb);
        let specs = [
            LoadSpec::rows(64),
            LoadSpec::rows(64).storage(StorageFormat::RowMajor),
            LoadSpec::rows(64).shape_class(ShapeClass::Prefill),
        ];
        for spec in specs {
            let layer = s.load_with(sb.clone(), spec).unwrap();
            assert_eq!(layer.backend(), BackendKind::Cpu(NmVersion::V3));
            let run = layer.forward(&a).unwrap();
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "max diff {}",
                run.c.max_abs_diff(&expect)
            );
            assert!(run.wall_seconds > 0.0, "must report wall time");
            assert_eq!(run.isa, layer.isa());
        }
        // One shape class: a single planning miss, then a cache hit for
        // every further load.
        let st = s.stats();
        assert_eq!((st.entries, st.hits, st.misses), (1, 2, 1));
    }

    #[test]
    fn forward_rejects_mismatched_operands_in_release_semantics() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 8).unwrap();
        let layer = s.load(weights(64, 32, cfg, 1), 16).unwrap();
        let bad = MatrixF32::random(16, 48, 2);
        let err = layer.forward(&bad).unwrap_err();
        assert!(matches!(err, NmError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn forward_vec_is_the_prepared_spmv_path_with_zero_extra_staging() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = weights(96, 64, cfg, 71);
        // Prepared once, for a *prefill* shape — the decode call below
        // must ride on exactly this offline work.
        let layer = s.load(sb.clone(), 128).unwrap();
        let x = MatrixF32::random(1, 96, 72);
        let staged_before = crate::cpu::offline_staging_passes();
        let vec_run = layer.forward_vec(x.row(0)).unwrap();
        let mat_run = layer.forward(&x).unwrap();
        assert_eq!(
            crate::cpu::offline_staging_passes(),
            staged_before,
            "decode must reuse prefill's staged CpuPrepared, not re-stage"
        );
        assert_eq!(vec_run.c.shape(), (1, 64));
        let expect = spmm_reference(&x, &sb);
        assert!(vec_run.c.allclose(&expect, 1e-3, 1e-4));
        assert_eq!(
            vec_run.c.as_slice(),
            mat_run.c.as_slice(),
            "the vector and 1-row matrix entries take the same data path"
        );
        // Length validation is structured, like forward's.
        let err = layer.forward_vec(&x.row(0)[..95]).unwrap_err();
        assert!(matches!(err, NmError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn storage_pins_route_transparently_and_stay_bit_identical() {
        use nm_core::sliced::SlicedLayout;
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 81));
        let x = MatrixF32::random(1, 96, 82);

        let auto = s.load(sb.clone(), 1).unwrap();
        assert_eq!(
            auto.storage(),
            Some(StorageFormat::RowMajor),
            "no pin, no measurement: the auto lane stages the paper layout"
        );

        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let sliced = s
            .load_with(sb.clone(), LoadSpec::rows(1).storage(pin))
            .unwrap();
        assert_eq!(sliced.plan().key.storage, pin, "own cache lane");
        assert_eq!(sliced.storage(), Some(pin));

        // The permutation is invisible: same activations, bit-identical
        // output, on both the matrix and the vector entry points.
        let (ra, rs) = (auto.forward(&x).unwrap(), sliced.forward(&x).unwrap());
        assert_eq!(ra.c.as_slice(), rs.c.as_slice());
        let (va, vs) = (
            auto.forward_vec(x.row(0)).unwrap(),
            sliced.forward_vec(x.row(0)).unwrap(),
        );
        assert_eq!(va.c.as_slice(), vs.c.as_slice());

        // A row-major pin shares the auto plan lane.
        let rm = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(1).storage(StorageFormat::RowMajor),
            )
            .unwrap();
        assert_eq!(rm.plan().key, auto.plan().key);
        assert_eq!(rm.storage(), Some(StorageFormat::RowMajor));
    }

    #[test]
    fn measured_loads_honor_storage_pins_and_record_the_winner() {
        use nm_core::sliced::SlicedLayout;
        let mut s = SessionBuilder::new(a100_80g())
            .autotune(AutotuneMode::Quick)
            .build()
            .unwrap();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 83));
        let x = MatrixF32::random(1, 96, 84);

        // The auto lane stages whatever the measurement picked.
        let auto = s.load(sb.clone(), 1).unwrap();
        let measured = auto.plan().measured.expect("measured evidence");
        assert_eq!(auto.storage(), Some(measured.storage));

        // A row-major pin reuses the auto lane's evidence (no second
        // measurement) but stages the pinned layout.
        let before = crate::measure::measurement_passes();
        let rm = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(1).storage(StorageFormat::RowMajor),
            )
            .unwrap();
        assert_eq!(crate::measure::measurement_passes(), before, "cache hit");
        assert_eq!(rm.storage(), Some(StorageFormat::RowMajor));
        assert_eq!(
            rm.plan().measured.as_ref().unwrap().cpu_tiling,
            measured.cpu_tiling,
            "the measured tile geometry survives the format rewrite"
        );

        // A sliced pin measures its own lane, restricted to the pin.
        let pin = StorageFormat::Sliced(SlicedLayout::new(4, 4).unwrap());
        let sliced = s
            .load_with(sb.clone(), LoadSpec::rows(1).storage(pin))
            .unwrap();
        assert_eq!(sliced.storage(), Some(pin));
        assert_eq!(sliced.plan().measured.as_ref().unwrap().storage, pin);

        // All three stage differently, multiply identically.
        let want = auto.forward_vec(x.row(0)).unwrap();
        for layer in [&rm, &sliced] {
            let got = layer.forward_vec(x.row(0)).unwrap();
            assert_eq!(want.c.as_slice(), got.c.as_slice());
        }
    }

    #[test]
    fn every_staging_borrows_the_weights_panels() {
        use nm_core::sliced::SlicedLayout;
        // Ragged k and n; L = 32 aligns every full panel.
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let sb = Arc::new(weights(200, 130, cfg, 91));
        let mut s = session();
        let rm = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(4).storage(StorageFormat::RowMajor),
            )
            .unwrap();
        let pin = StorageFormat::Sliced(SlicedLayout::new(8, 32).unwrap());
        let sliced = s
            .load_with(sb.clone(), LoadSpec::rows(4).storage(pin))
            .unwrap();
        let mut quick = SessionBuilder::new(a100_80g())
            .autotune(AutotuneMode::Quick)
            .build()
            .unwrap();
        let measured = quick.load(sb.clone(), 1).unwrap();

        let panels = sb.panels().as_ptr_range();
        assert_eq!(panels.start as usize % 64, 0);
        for layer in [&rm, &sliced, &measured] {
            assert!(std::ptr::eq(layer.weights(), &*sb));
            let (sm, _, _) = layer.state.staged();
            for pos in 0..sm.windows() {
                let v = sm.window_values(pos, 0, sm.w()).as_ptr_range();
                let within = panels.start <= v.start && v.end <= panels.end;
                assert!(
                    within,
                    "{:?}: window {pos} is not in the panels",
                    layer.storage()
                );
                if sm.span(pos).1 == cfg.l {
                    assert_eq!(v.start as usize % 64, 0, "window {pos}");
                }
            }
        }
        assert_eq!(rm.state.staged().0.layout().sort_window, 1);
        assert_eq!(
            sliced.state.staged().0.layout(),
            SlicedLayout::new(8, 32).unwrap()
        );
    }

    #[test]
    fn load_model_groups_layers_and_accounts_cache_sharing() {
        let mut s = session();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        // Two identical shapes and one distinct: 2 misses, 1 hit.
        let model = s
            .load_model(
                vec![
                    weights(128, 96, cfg, 11),
                    weights(128, 96, cfg, 12),
                    weights(96, 64, cfg, 13),
                ],
                32,
            )
            .unwrap();
        assert_eq!(model.len(), 3);
        assert!(!model.is_empty());
        assert_eq!((model.cache_hits(), model.cache_misses()), (1, 2));
        let a = MatrixF32::random(32, 128, 14);
        let run = model.layer(0).forward(&a).unwrap();
        assert!(run
            .c
            .allclose(&spmm_reference(&a, model.layer(0).weights()), 1e-3, 1e-4));
        assert_eq!(model.into_layers().len(), 3);
    }

    #[test]
    fn load_planned_does_not_touch_cache_accounting() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = s.plan(512, 512, 512, cfg).unwrap();
        let before = s.stats();
        // Scaled-down weights executed under the full-size plan.
        let sb = weights(64, 64, cfg, 21);
        let layer = s.load_planned(plan, sb).unwrap();
        let after = s.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        let a = MatrixF32::random(16, 64, 22);
        let run = layer.forward(&a).unwrap();
        assert!(run
            .c
            .allclose(&spmm_reference(&a, layer.weights()), 1e-3, 1e-4));
    }

    #[test]
    fn load_with_is_the_wrappers_single_implementation() {
        // load must be byte-for-byte equivalent to the bare spec, and
        // load_planned on the plan it resolved to: same plan key, same
        // math.
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 61));
        let a = MatrixF32::random(16, 96, 62);

        let via_load = s.load(sb.clone(), 16).unwrap();
        let via_spec = s.load_with(sb.clone(), LoadSpec::rows(16)).unwrap();
        assert_eq!(via_load.plan().key, via_spec.plan().key);

        let plan = via_load.plan().clone();
        let planned = s.load_planned(plan, sb.clone()).unwrap();
        assert_eq!(planned.plan().key, via_load.plan().key);
        let (r1, r2) = (via_load.forward(&a).unwrap(), planned.forward(&a).unwrap());
        assert_eq!(r1.c.as_slice(), r2.c.as_slice());
        let r3 = via_spec.forward(&a).unwrap();
        assert_eq!(r1.c.as_slice(), r3.c.as_slice());
    }

    #[test]
    fn shape_class_override_plans_the_decode_band_for_prefill_rows() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 63));
        // 64 rows classifies as Prefill; the spec forces the decode band.
        let layer = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(64).shape_class(ShapeClass::Decode(4)),
            )
            .unwrap();
        assert_eq!(layer.plan().key.shape, ShapeClass::Decode(4));
        // The staged state still executes the real operand correctly.
        let a = MatrixF32::random(4, 96, 64);
        let run = layer.forward(&a).unwrap();
        assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));

        // And the reverse: force the GEMM regime onto a skinny shape.
        let wide = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(2).shape_class(ShapeClass::Prefill),
            )
            .unwrap();
        assert_eq!(wide.plan().key.shape, ShapeClass::Prefill);
    }

    #[test]
    fn load_spec_rejects_contradictions_and_out_of_band_decode() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 65));
        let err = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(64).shape_class(ShapeClass::Decode(99)),
            )
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn planned_spec_bypasses_cache_and_defaults_to_session_backend() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = s.plan(64, 64, 64, cfg).unwrap();
        let before = s.stats();
        let sb = Arc::new(weights(64, 64, cfg, 66));
        let layer = s.load_planned(plan, sb).unwrap();
        let after = s.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(layer.backend(), BackendKind::Cpu(NmVersion::V3));
    }

    #[test]
    fn isa_override_pins_every_loaded_layer() {
        let mut s = SessionBuilder::new(a100_80g())
            .micro_kernel(MicroKernel::scalar())
            .build()
            .unwrap();
        let cfg = NmConfig::new(2, 8, 8).unwrap();
        let sb = Arc::new(weights(64, 32, cfg, 31));
        let layer = s.load(sb.clone(), 16).unwrap();
        assert_eq!(layer.isa(), Isa::Scalar);
        // The codegen twin takes the same pin, so it reproduces the CPU
        // layer bit for bit.
        let pin = Some(MicroKernel::scalar());
        let codegen = crate::codegen::CodegenPrepared::new(layer.plan(), &sb, pin).unwrap();
        assert_eq!(codegen.isa(), Isa::Scalar);
        let a = MatrixF32::random(16, 64, 33);
        let (cpu_run, (gen_c, _)) = (layer.forward(&a).unwrap(), codegen.execute(&a).unwrap());
        assert_eq!(cpu_run.c.as_slice(), gen_c.as_slice());
    }

    #[test]
    fn plan_cache_file_round_trips_through_sessions() {
        let mut path = std::env::temp_dir();
        path.push(format!("nm-spmm-session-cache-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = NmConfig::new(2, 16, 32).unwrap();

        let mut cold = SessionBuilder::new(a100_80g())
            .plan_cache(&path)
            .build()
            .unwrap();
        cold.plan(512, 512, 512, cfg).unwrap();
        assert_eq!(cold.stats().misses, 1);
        assert!(cold.save().unwrap());

        let mut warm = SessionBuilder::new(a100_80g())
            .plan_cache(&path)
            .build()
            .unwrap();
        warm.plan(512, 512, 512, cfg).unwrap();
        let st = warm.stats();
        assert_eq!(
            (st.hits, st.misses),
            (1, 0),
            "the reloaded session must serve the plan from disk"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_and_reload_through_backing_file() {
        // A layer load's plan survives the file: the reloaded session
        // stages the same plan without re-planning.
        let path = std::env::temp_dir().join(format!(
            "nm-spmm-session-reload-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let backed = || SessionBuilder::new(a100_80g()).plan_cache(&path).build();
        let sb = Arc::new(weights(96, 64, NmConfig::new(2, 16, 32).unwrap(), 17));

        let mut cold = backed().unwrap();
        let plan = cold.load(sb.clone(), 16).unwrap().plan().clone();
        assert_eq!(cold.stats().misses, 1);
        assert!(cold.save().unwrap());

        let mut warm = backed().unwrap();
        let replay = warm.load(sb, 16).unwrap().plan().clone();
        let st = warm.stats();
        assert_eq!(
            (st.hits, st.misses),
            (1, 0),
            "reloaded session must serve the plan from disk"
        );
        assert_eq!(plan, replay);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn session_plans_and_counts() {
        let mut s = session();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        s.plan(1024, 1024, 1024, cfg).unwrap();
        s.plan(1024, 1024, 1024, cfg).unwrap();
        let st = s.stats();
        assert_eq!((st.entries, st.hits, st.misses), (1, 1, 1));
        assert!(st.to_string().contains("1 hits"));
    }

    #[test]
    fn repeated_plans_across_levels_count_hits_per_shape_class() {
        let mut s = session();
        for cfg in [
            NmConfig::new(8, 16, 32).unwrap(),
            NmConfig::new(2, 16, 32).unwrap(),
            NmConfig::new(8, 16, 32).unwrap(), // repeat: planned from cache
        ] {
            let plan = s.plan(96, 256, 128, cfg).unwrap();
            assert_eq!(plan.key.cfg().unwrap(), cfg);
        }
        let st = s.stats();
        assert_eq!((st.entries, st.hits, st.misses), (2, 1, 2));
    }

    #[test]
    fn unbacked_session_save_is_a_noop() {
        assert!(!session().save().unwrap());
    }

    #[test]
    fn stale_backing_file_replans_and_saves_the_current_version() {
        use nm_core::json::JsonValue;
        let path =
            std::env::temp_dir().join(format!("nm-spmm-session-stale-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let backed = || SessionBuilder::new(a100_80g()).plan_cache(&path).build();
        let mut s = backed().unwrap();
        s.plan(512, 512, 512, cfg).unwrap();
        let current = s.planner.cache().to_json().unwrap();
        let version = |text: &str| {
            JsonValue::parse(text)
                .unwrap()
                .usize_field("version")
                .unwrap()
        };
        let stale = current.replace(
            &format!("\"version\":{}", version(&current)),
            "\"version\":4",
        );
        std::fs::write(&path, stale).unwrap();

        let mut reload = backed().unwrap();
        reload.plan(512, 512, 512, cfg).unwrap();
        let st = reload.stats();
        assert_eq!((st.hits, st.misses), (0, 1), "a stale file must re-plan");
        assert!(reload.save().unwrap());
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(version(&saved), version(&current));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_backing_file_is_an_error() {
        let path = std::env::temp_dir().join(format!(
            "nm-spmm-session-malformed-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "not json").unwrap();
        assert!(SessionBuilder::new(a100_80g())
            .plan_cache(&path)
            .build()
            .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutated_plan_caches_load_or_fail_without_panicking() {
        use crate::plan::{PlanCache, Provenance};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let file = |tag: &str| {
            let pid = std::process::id();
            std::env::temp_dir().join(format!("nm-spmm-mutated-cache-{pid}-{tag}.json"))
        };
        let (saved, variant) = (file("saved"), file("variant"));
        let _ = std::fs::remove_file(&saved);
        let session = |path: &Path| {
            SessionBuilder::new(a100_80g())
                .autotune(AutotuneMode::Quick)
                .plan_cache(path)
                .build()
        };
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let sb = Arc::new(weights(64, 64, cfg, 91));
        let load = |path: &Path| session(path)?.load(Arc::clone(&sb), 8);

        // A measured load saves the cost-model base plan and its
        // host-scoped measured winner: one entry of each provenance.
        load(&saved).unwrap();
        let doc = std::fs::read_to_string(&saved).unwrap();
        let _ = std::fs::remove_file(&saved);
        let cache = PlanCache::from_json(&doc).unwrap();
        let mut kinds: Vec<_> = cache.plans().map(|p| p.provenance).collect();
        kinds.sort_by_key(|p| p.name());
        assert_eq!(kinds, [Provenance::CostModel, Provenance::Measured]);

        // Parsing ends in `Ok` or an `NmError`; a document that parses
        // then drives `Session::load` to `Ok` or an `NmError`.
        let loads_or_fails_cleanly = |case: &str, text: &str| {
            let Ok(parsed) = catch_unwind(|| PlanCache::from_json(text)) else {
                panic!("{case}: PlanCache::from_json panicked");
            };
            if parsed.is_err() {
                return false;
            }
            std::fs::write(&variant, text).unwrap();
            let loaded = catch_unwind(AssertUnwindSafe(|| load(&variant)));
            assert!(loaded.is_ok(), "{case}: Session::load panicked");
            true
        };
        assert!(loads_or_fails_cleanly("intact", &doc));
        let bytes = doc.as_bytes();
        for cut in 0..bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..cut]);
            loads_or_fails_cleanly(&format!("cut at {cut}"), &text);
        }
        // Every single-bit flip below 0x80 keeps the text ASCII (digits
        // turn into digits, punctuation or letters; letters change case);
        // the full flip leaves a replacement character.
        for at in 0..bytes.len() {
            for flip in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0xFF] {
                let mut bad = bytes.to_vec();
                bad[at] ^= flip;
                let text = String::from_utf8_lossy(&bad);
                loads_or_fails_cleanly(&format!("byte {at} ^ {flip:#04x}"), &text);
            }
        }
        let _ = std::fs::remove_file(&variant);
    }

    #[test]
    fn threads_knob_is_best_effort_and_queryable() {
        // `threads(0)` exercises the install path without capping the
        // pool: the global install is first-wins and process-wide, so a
        // real cap here would silently serialize every other test in
        // this binary (the capping semantics themselves are covered by
        // the rayon shim's own test, in its own process).
        let s = SessionBuilder::new(a100_80g()).threads(0).build().unwrap();
        assert!(s.threads() >= 1);
    }
}
