//! The prepared-session API: plan-once / prepare-once layer handles — the
//! single public execution surface of the workspace.
//!
//! ## Why a session
//!
//! The paper's performance accounting hinges on the **offline/online
//! split**: layout transformation (`transformLayout`) and, on the
//! simulated GPU, `col_info` packing are one-time offline work, amortized
//! over every inference call
//! that follows. This module is the object that *owns* that amortization:
//!
//! * [`SessionBuilder`] configures the execution context once — device
//!   model, default [`BackendKind`], micro-kernel ISA override, worker
//!   thread cap, persistent plan-cache path.
//! * [`Session::load`] takes a pruned weight matrix and does **all** the
//!   offline work in one place: it plans (strategy decision + exhaustive
//!   autotune, memoized in the engine's [`PlanCache`](crate::plan::PlanCache))
//!   and runs the backend's preparation ([`BackendKind::prepare`] — `B′`
//!   block staging, the simulator's `col_info` packing, micro-kernel
//!   dispatch). The result is a [`PreparedLayer`] handle.
//! * [`PreparedLayer::forward`] / [`PreparedLayer::forward_batch`] are the
//!   **online** path: they touch none of the offline work again — every
//!   call runs the owned prepared state. The
//!   [`cpu::offline_staging_passes`](crate::cpu::offline_staging_passes)
//!   probe lets callers prove that, not just trust it.
//! * [`Session::load_model`] loads a whole stack of layers (a Llama
//!   sweep's five linears, a transformer block's three matmuls) as one
//!   group, reporting how many plans came from the shared cache.
//!
//! ## What lands in `wall_seconds`
//!
//! [`ExecRun::wall_seconds`] measures the **online kernel only**: the
//! clock starts after `load` finished staging. Two costs are deliberately
//! *inside* the timed window because they genuinely recur per call: the
//! CPU kernel's zero-padded copy of `A` when `k` is not a multiple of `M`
//! (it otherwise gathers `A` in place), and — for the simulator — the
//! reference oracle plus the prediction. Everything derived
//! from the weights alone (blocking derivation, `B′` staging, `col_info`,
//! ISA dispatch) is paid once in `load` and never again, mirroring how
//! the paper excludes its pre-processing from kernel time.
//!
//! ## Environment-override precedence
//!
//! Several defaults can be steered from the environment: `NM_SPMM_BACKEND`
//! (default backend), `NM_SPMM_STORAGE` (storage-format pin),
//! `NM_SPMM_AUTOTUNE` (measured autotuning), and — inside the micro-kernel
//! dispatch — `NM_SPMM_ISA` / `NM_SPMM_FORCE_SCALAR`. The rule is uniform:
//! **an explicit builder call always beats the environment variable**, and
//! the variable beats the built-in default. Every variable is strictly
//! validated (an unrecognized value is a structured build error, never a
//! silent fallback). The precedence is pinned by `tests/env_overrides.rs`.
//!
//! ## Concurrency
//!
//! [`PreparedLayer`] is `Send + Sync`: one prepared handle can serve
//! concurrent callers (`forward` takes `&self`), which is the shape a
//! serving front-end needs. [`PreparedLayer::forward_batch`] validates
//! every member's shape up front (a mid-batch mismatch is reported before
//! any work is spent) and keeps parallelism at exactly one level: batch
//! members fan across the rayon pool for the per-call-serial backend (the
//! codegen interpreter), while backends that parallelize inside each call
//! (the CPU kernel, by row panels or by column ranges) or that run the
//! reference oracle (the simulator) map their batch serially instead of
//! nesting thread fan-outs.

use crate::backend::{BackendKind, ExecRun, PreparedState};
use crate::engine::{CacheStats, Engine};
use crate::measure::{self, AutotuneMode, MeasureSpec};
use crate::nm::NmVersion;
use crate::plan::{Plan, PlanHost, ShapeClass};
use crate::simd::{Isa, MicroKernel};
use gpu_sim::device::DeviceConfig;
use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sliced::StorageFormat;
use nm_core::sparse::NmSparseMatrix;
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration for a [`Session`] — the one-stop execution context.
///
/// ```
/// use nm_kernels::session::SessionBuilder;
/// use nm_kernels::{BackendKind, NmVersion};
/// use gpu_sim::device::a100_80g;
///
/// let session = SessionBuilder::new(a100_80g())
///     .backend(BackendKind::Cpu(NmVersion::V3))
///     .build()
///     .expect("session");
/// assert_eq!(session.backend(), BackendKind::Cpu(NmVersion::V3));
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    device: DeviceConfig,
    backend: Option<BackendKind>,
    isa: Option<Isa>,
    kernel: Option<MicroKernel>,
    threads: Option<usize>,
    cache_path: Option<PathBuf>,
    autotune: Option<AutotuneMode>,
    storage: Option<StorageFormat>,
}

impl SessionBuilder {
    /// A builder for `device` with the defaults: native CPU V3 backend
    /// (unless `NM_SPMM_BACKEND` says otherwise), runtime micro-kernel
    /// dispatch, uncapped workers, in-memory plan cache, measured
    /// autotuning off (unless `NM_SPMM_AUTOTUNE` says otherwise).
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: None,
            isa: None,
            kernel: None,
            threads: None,
            cache_path: None,
            autotune: None,
            storage: None,
        }
    }

    /// The default backend layers are loaded on ([`Session::load`]);
    /// [`Session::load_on`] overrides it per layer.
    ///
    /// Precedence: an explicit call here **always beats** the
    /// `NM_SPMM_BACKEND` environment variable, which in turn beats the
    /// built-in default (`cpu_v3`) — the same explicit-beats-environment
    /// rule every `NM_SPMM_*` override follows (see the module docs).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pin every CPU and codegen preparation to one micro-kernel ISA
    /// instead of the per-host runtime dispatch. [`SessionBuilder::build`]
    /// fails with [`NmError::Unsupported`] when this host cannot execute
    /// `isa`.
    pub fn isa(mut self, isa: Isa) -> Self {
        self.isa = Some(isa);
        self.kernel = None;
        self
    }

    /// Pin every CPU and codegen preparation to an already-resolved
    /// micro-kernel (the harness hook; [`SessionBuilder::isa`] is the
    /// usual override).
    pub fn micro_kernel(mut self, kernel: MicroKernel) -> Self {
        self.kernel = Some(kernel);
        self.isa = None;
        self
    }

    /// Cap the rayon worker fan-out (V3's row panels or column ranges,
    /// batched forwards).
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
    /// it exists (a malformed file is a build error, not silently
    /// ignored), written back by [`Session::save`].
    pub fn plan_cache(mut self, path: impl AsRef<Path>) -> Self {
        self.cache_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// How much **measured** autotuning [`Session::load`] performs when
    /// the default backend is the native CPU kernel: `Off` executes the
    /// cost-model plan as-is, `Quick`/`Full` run the
    /// [`measure`](mod@crate::measure) harness on a cache miss and persist
    /// the measured-best tiling and storage format through the plan
    /// cache, keyed by `(host ISA, thread count, shape class, N:M)`, and
    /// prepare the CPU kernel on them.
    ///
    /// An explicit mode overrides the `NM_SPMM_AUTOTUNE` environment
    /// variable; without either, measurement is off.
    pub fn autotune(mut self, mode: AutotuneMode) -> Self {
        self.autotune = Some(mode);
        self
    }

    /// Pin every layer this session loads to one `B′` storage format
    /// instead of the planned/measured lane: `StorageFormat::RowMajor`
    /// forces the paper's layout, `StorageFormat::Sliced` the SELL-C-σ
    /// panels. [`LoadSpec::storage`] overrides this per layer.
    ///
    /// An explicit pin overrides the `NM_SPMM_STORAGE` environment
    /// variable; without either, the format is planned (and, under
    /// measured autotuning, chosen by evidence).
    pub fn storage(mut self, format: StorageFormat) -> Self {
        self.storage = Some(format);
        self
    }

    /// Build the session.
    ///
    /// # Errors
    /// [`NmError::Unsupported`] when an [`SessionBuilder::isa`] override
    /// names an ISA this host cannot execute, `NM_SPMM_AUTOTUNE` holds
    /// an unrecognized mode, or `NM_SPMM_STORAGE` holds an unrecognized
    /// storage format (both strictly validated, like `NM_SPMM_ISA` —
    /// never a silent fallback), and
    /// [`NmError::Persist`] when `NM_SPMM_BACKEND` names an unknown
    /// backend (`cpu_v1` and `cpu_v2` included) or the plan-cache file
    /// exists but cannot be parsed, and [`NmError::Unsupported`] when
    /// [`SessionBuilder::backend`] names a backend
    /// [`BackendKind::prepare`] rejects (`Cpu(V1)`, `Cpu(V2)`).
    ///
    /// Environment overrides (`NM_SPMM_BACKEND`, `NM_SPMM_STORAGE`,
    /// `NM_SPMM_AUTOTUNE`) are consulted **only** for settings the
    /// builder was not explicitly given — explicit builder calls always
    /// win (tested in `tests/env_overrides.rs`).
    pub fn build(self) -> Result<Session> {
        let backend = match self.backend {
            Some(b) => b,
            None => BackendKind::from_env()?.unwrap_or(BackendKind::Cpu(NmVersion::V3)),
        }
        .supported()?;
        let kernel = match (self.kernel, self.isa) {
            (Some(k), _) => Some(k),
            (None, Some(isa)) => Some(MicroKernel::for_isa(isa)?),
            (None, None) => None,
        };
        let autotune = match self.autotune {
            Some(mode) => mode,
            None => AutotuneMode::from_env()?.unwrap_or_default(),
        };
        let storage = match self.storage {
            Some(format) => Some(format),
            None => StorageFormat::from_env()?,
        };
        if let Some(threads) = self.threads {
            // First-wins, like real rayon: a pool configured earlier in
            // the process keeps its setting.
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
        }
        let engine = match &self.cache_path {
            Some(path) => Engine::with_cache_file(self.device, path)?,
            None => Engine::new(self.device),
        };
        Ok(Session {
            engine,
            backend,
            kernel,
            autotune,
            storage,
        })
    }
}

/// A typed description of **one layer load** — what [`Session::load_with`]
/// consumes, and what the `load`/`load_on`/`load_planned` conveniences
/// build behind the scenes.
///
/// A spec starts from the one piece of information every load needs — the
/// activation row count — and layers optional overrides on top:
///
/// * [`LoadSpec::backend`] — prepare on an explicit backend instead of
///   the session default. An explicit backend also **opts out of the
///   measured-autotune path**: measurement evidence is only gathered and
///   consulted for default-backend loads, exactly as `load` vs `load_on`
///   always behaved.
/// * [`LoadSpec::shape_class`] — plan under an explicit
///   [`ShapeClass`] instead of the one `rows` classifies to: a layer
///   serving autoregressive decode can be planned on the decode band
///   (`ShapeClass::Decode(m)`, `m ≤ DECODE_MAX_ROWS`) even though it was
///   loaded for a prefill row count, and vice versa.
/// * [`LoadSpec::planned`] — the escape hatch: skip planning entirely
///   and prepare against an externally resolved [`Plan`] (cache
///   accounting untouched). Mutually exclusive with `shape_class`; the
///   plan *is* the shape decision.
///
/// ```
/// use nm_kernels::session::LoadSpec;
/// use nm_kernels::{BackendKind, NmVersion, ShapeClass};
///
/// let spec = LoadSpec::rows(64)
///     .backend(BackendKind::Cpu(NmVersion::V3))
///     .shape_class(ShapeClass::Decode(4));
/// ```
#[derive(Debug, Clone)]
pub struct LoadSpec {
    rows: usize,
    backend: Option<BackendKind>,
    shape_class: Option<ShapeClass>,
    plan: Option<Plan>,
    storage: Option<StorageFormat>,
}

impl LoadSpec {
    /// A spec for activations of `rows` rows, with every override unset:
    /// session-default backend, shape class derived from `rows`, planning
    /// through the cache.
    pub fn rows(rows: usize) -> Self {
        Self {
            rows,
            backend: None,
            shape_class: None,
            plan: None,
            storage: None,
        }
    }

    /// Prepare on an explicit backend instead of the session default
    /// (also opts out of measured autotuning — see the type docs).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Plan under an explicit shape class instead of the one `rows`
    /// classifies to (validated by the planner; `Decode(m)` must have
    /// `m` in `1..=DECODE_MAX_ROWS`).
    pub fn shape_class(mut self, class: ShapeClass) -> Self {
        self.shape_class = Some(class);
        self
    }

    /// Skip planning and prepare against this externally resolved plan.
    /// Mutually exclusive with [`LoadSpec::shape_class`] and
    /// [`LoadSpec::storage`].
    pub fn planned(mut self, plan: Plan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Pin this layer's `B′` storage format instead of the
    /// planned/measured lane. A sliced pin plans (and caches) on its own
    /// format lane; a row-major pin shares the auto lane's plan but
    /// always stages the paper's layout. Overrides the session-wide
    /// [`SessionBuilder::storage`] pin. Mutually exclusive with
    /// [`LoadSpec::planned`] — the plan already fixes the lane.
    pub fn storage(mut self, format: StorageFormat) -> Self {
        self.storage = Some(format);
        self
    }
}

/// An execution context: planner + plan cache + backend configuration.
///
/// Sessions hand out [`PreparedLayer`] handles via [`Session::load_with`]
/// (and the `load`/`load_on`/`load_planned` conveniences built on it);
/// estimate-only consumers can also call [`Session::plan`] directly.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    backend: BackendKind,
    kernel: Option<MicroKernel>,
    autotune: AutotuneMode,
    storage: Option<StorageFormat>,
}

impl Session {
    /// Shorthand for [`SessionBuilder::new`].
    pub fn builder(device: DeviceConfig) -> SessionBuilder {
        SessionBuilder::new(device)
    }

    /// The device this session plans for.
    pub fn device(&self) -> &DeviceConfig {
        self.engine.device()
    }

    /// The default backend layers are loaded on.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The worker threads parallel execution fans out to at most.
    pub fn threads(&self) -> usize {
        rayon::current_num_threads()
    }

    /// The measured-autotuning mode [`Session::load`] applies.
    pub fn autotune(&self) -> AutotuneMode {
        self.autotune
    }

    /// The session-wide storage-format pin, when one is set
    /// ([`SessionBuilder::storage`] or `NM_SPMM_STORAGE`).
    pub fn storage(&self) -> Option<StorageFormat> {
        self.storage
    }

    /// Plan a problem through the shared cache (strategy decision +
    /// exhaustive autotune on a miss, O(1) on a hit). The estimate-only
    /// entry point; [`Session::load`] calls it internally. A session-wide
    /// storage pin routes the plan onto that format's cache lane, exactly
    /// as the load paths would.
    pub fn plan(&mut self, m: usize, n: usize, k: usize, cfg: NmConfig) -> Result<Plan> {
        match self.storage {
            Some(f) => self
                .engine
                .plan_stored(ShapeClass::of_rows(m), f, m, n, k, cfg),
            None => self.engine.plan(m, n, k, cfg),
        }
    }

    /// As [`Session::plan`], but under an explicit [`ShapeClass`] —
    /// see [`Planner::plan_as`](crate::plan::Planner::plan_as).
    pub fn plan_as(
        &mut self,
        class: ShapeClass,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        match self.storage {
            Some(f) => self.engine.plan_stored(class, f, m, n, k, cfg),
            None => self.engine.plan_as(class, m, n, k, cfg),
        }
    }

    /// Plan-cache counters — entries, hits, misses.
    pub fn stats(&self) -> CacheStats {
        self.engine.stats()
    }

    /// Write the plan cache back to its backing file; `false` when the
    /// session has none.
    pub fn save(&self) -> Result<bool> {
        self.engine.save()
    }

    /// Do **all** the offline work for one layer, once, as described by a
    /// typed [`LoadSpec`]: plan (or adopt the spec's pre-resolved plan)
    /// and run the backend's preparation (staging + dispatch). The
    /// returned handle amortizes every one of those costs across its
    /// `forward` calls.
    ///
    /// This is the **single load entry point**; [`Session::load`],
    /// [`Session::load_on`] and [`Session::load_planned`] are thin
    /// conveniences over it. The spec resolves in this order:
    ///
    /// 1. A [`LoadSpec::planned`] plan is adopted as-is (cache accounting
    ///    untouched) and prepared on the spec's backend, defaulting to
    ///    the session backend.
    /// 2. Otherwise the layer is planned through the shared cache — under
    ///    the [`LoadSpec::shape_class`] override when one is set, else
    ///    under the class `rows` derives.
    /// 3. A load with **no backend override** on a CPU-default session
    ///    with [`SessionBuilder::autotune`] `Quick`/`Full` additionally
    ///    takes the measured-autotune pass: consult the plan cache for a
    ///    measured entry scoped to this host (ISA + thread count); on a
    ///    miss, run the [`measure`](mod@crate::measure) harness, persist
    ///    the winner through the cache's backing file (when one is
    ///    configured), and prepare the CPU kernel on the measured-best
    ///    tiling and storage format. An explicit [`LoadSpec::backend`] never measures —
    ///    the same contract `load` vs `load_on` always had.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] when the spec sets both `planned` and
    /// `shape_class` (the plan *is* the shape decision) or names an
    /// out-of-band decode class; planning failures;
    /// [`NmError::InvalidBlocking`] when the tuned blocking cannot drive
    /// the backend; [`NmError::Unsupported`] when an environment ISA
    /// override names an ISA this host cannot execute, or the spec's
    /// backend is one [`BackendKind::prepare`] rejects.
    pub fn load_with(
        &mut self,
        weights: impl Into<Arc<NmSparseMatrix>>,
        spec: LoadSpec,
    ) -> Result<PreparedLayer> {
        let weights = weights.into();
        if spec.plan.is_some() && spec.shape_class.is_some() {
            return Err(NmError::InvalidConfig {
                reason: "LoadSpec::planned and LoadSpec::shape_class are mutually exclusive: \
                         a pre-resolved plan already fixes the shape class"
                    .into(),
            });
        }
        if spec.plan.is_some() && spec.storage.is_some() {
            return Err(NmError::InvalidConfig {
                reason: "LoadSpec::planned and LoadSpec::storage are mutually exclusive: \
                         a pre-resolved plan already fixes the storage lane"
                    .into(),
            });
        }
        if let Some(plan) = spec.plan {
            return self.prepare_layer(plan, weights, spec.backend.unwrap_or(self.backend));
        }
        let pin = spec.storage.or(self.storage);
        if spec.backend.is_none() {
            if let (BackendKind::Cpu(_), Some(mspec)) =
                (self.backend, MeasureSpec::for_mode(self.autotune))
            {
                return self.load_measured(weights, spec.rows, spec.shape_class, pin, mspec);
            }
        }
        let backend = spec.backend.unwrap_or(self.backend);
        let plan = self.plan_spec(spec.shape_class, pin, spec.rows, &weights)?;
        self.prepare_layer(plan, weights, backend)
    }

    /// Plan one layer for `rows`-row activations, honoring the optional
    /// shape-class and storage-format overrides, through the shared
    /// (counted) cache. A pinned format plans on that format's lane
    /// (a sliced pin gets its own cache identity; a row-major pin shares
    /// the auto lane — both spell `StorageFormat` into the key the same
    /// way row-major auto plans do).
    fn plan_spec(
        &mut self,
        class: Option<ShapeClass>,
        pin: Option<StorageFormat>,
        rows: usize,
        weights: &NmSparseMatrix,
    ) -> Result<Plan> {
        let (n, k, cfg) = (weights.cols(), weights.k(), weights.cfg());
        match (pin, class) {
            (Some(f), class) => {
                let class = class.unwrap_or_else(|| ShapeClass::of_rows(rows));
                self.engine.plan_stored(class, f, rows, n, k, cfg)
            }
            (None, Some(c)) => self.engine.plan_as(c, rows, n, k, cfg),
            (None, None) => self.engine.plan(rows, n, k, cfg),
        }
    }

    /// Convenience for the common case: [`Session::load_with`] under a
    /// bare `LoadSpec::rows(rows)` — session-default backend, derived
    /// shape class, measured autotuning when the session enables it.
    pub fn load(
        &mut self,
        weights: impl Into<Arc<NmSparseMatrix>>,
        rows: usize,
    ) -> Result<PreparedLayer> {
        self.load_with(weights, LoadSpec::rows(rows))
    }

    /// The measured path of [`Session::load_with`]: cache consult →
    /// measure on miss → persist → prepare on the measured winner.
    fn load_measured(
        &mut self,
        weights: Arc<NmSparseMatrix>,
        rows: usize,
        class: Option<ShapeClass>,
        pin: Option<StorageFormat>,
        spec: MeasureSpec,
    ) -> Result<PreparedLayer> {
        let base = self.plan_spec(class, pin, rows, &weights)?;
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
        let mut plan = match self.engine.lookup(&key) {
            Some(plan) => plan,
            None => {
                let outcome = measure::measure(&base, &weights, rows, Some(kernel), spec)?;
                let plan = base.with_measured(host, outcome.best)?;
                self.engine.insert(plan.clone());
                // Persist the (comparatively expensive) evidence through
                // the same path analytic plans use; no-op when the
                // session has no backing file.
                self.engine.save()?;
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
        self.prepare_layer(plan, weights, BackendKind::Cpu(NmVersion::V3))
    }

    /// Convenience for per-layer backend selection:
    /// [`Session::load_with`] under `LoadSpec::rows(rows).backend(..)`.
    /// An explicit backend never takes the measured-autotune path.
    pub fn load_on(
        &mut self,
        weights: impl Into<Arc<NmSparseMatrix>>,
        rows: usize,
        backend: BackendKind,
    ) -> Result<PreparedLayer> {
        self.load_with(weights, LoadSpec::rows(rows).backend(backend))
    }

    /// Convenience for the plan escape hatch: prepare a layer against an
    /// **explicitly provided** plan, bypassing the planner (and therefore
    /// the cache counters) entirely — `LoadSpec::planned` semantics,
    /// callable on `&self` since nothing is planned.
    ///
    /// The weights need not match the plan's shape class — backends
    /// re-derive their tiling from the actual dimensions — which lets a
    /// sweep plan at full model size but execute a scaled-down instance,
    /// keeping its cache accounting untouched.
    pub fn load_planned(
        &self,
        plan: Plan,
        weights: impl Into<Arc<NmSparseMatrix>>,
        backend: BackendKind,
    ) -> Result<PreparedLayer> {
        self.prepare_layer(plan, weights.into(), backend)
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

    fn prepare_layer(
        &self,
        plan: Plan,
        weights: Arc<NmSparseMatrix>,
        kind: BackendKind,
    ) -> Result<PreparedLayer> {
        let state = kind.prepare(self.engine.device(), &plan, &weights, self.kernel)?;
        Ok(PreparedLayer {
            plan,
            kind,
            state,
            weights,
        })
    }
}

/// One layer, fully prepared: the plan, the backend it was prepared on,
/// the backend's offline state — which holds everything `forward` reads, so
/// nothing is rebuilt per call — and the (shared, via `Arc`) weights that
/// [`PreparedLayer::weights`] hands back.
///
/// The weights' window-major value panels are the only resident copy of
/// `B′`: a CPU staging ([`PreparedState::staging`]) owns its gather table
/// and window permutation and borrows the panels. Loading the same weights
/// several times — other formats, a decode stack, measured candidates —
/// copies no values.
///
/// The handle is `Send + Sync`; `forward` takes `&self`, so one prepared
/// layer can serve concurrent callers (e.g. a serving front-end's worker
/// threads) without cloning any staged data.
pub struct PreparedLayer {
    plan: Plan,
    kind: BackendKind,
    state: Box<dyn PreparedState>,
    weights: Arc<NmSparseMatrix>,
}

impl PreparedLayer {
    /// The resolved plan this layer executes under.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The backend this layer runs on.
    pub fn backend(&self) -> BackendKind {
        self.kind
    }

    /// The compressed weights this layer multiplies by.
    pub fn weights(&self) -> &NmSparseMatrix {
        &self.weights
    }

    /// The micro-kernel ISA the preparation dispatched to (CPU backends
    /// only; the simulator has no host ISA).
    pub fn isa(&self) -> Option<Isa> {
        self.state.isa()
    }

    /// The `B′` storage format the preparation actually staged (CPU
    /// backends only; the simulator stages nothing). `forward` results
    /// are bit-identical across formats — this reports which layout the
    /// planned/measured/pinned resolution landed on.
    pub fn storage(&self) -> Option<StorageFormat> {
        self.state.storage()
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
    /// The exact staged state `forward` uses serves this call (on the CPU
    /// kernel the one-row rung of the vectorized register-tile ladder
    /// streams the same staged `B′`), so a layer prepared once — e.g. for
    /// a prefill shape — serves autoregressive decode with **zero**
    /// additional offline work; only the `1 × k` operand view is built
    /// per call.
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] when `x.len()` disagrees with the
    /// weights' reduction depth.
    pub fn forward_vec(&self, x: &[f32]) -> Result<ExecRun> {
        let a = MatrixF32::from_vec(1, x.len(), x.to_vec());
        self.forward(&a)
    }

    /// Multiply a whole batch of activation matrices, one [`ExecRun`] per
    /// member, in batch order, returned as one [`BatchRun`] carrying the
    /// aggregate wall time and the routing decision.
    ///
    /// Every member's shape is validated **before any work starts**, so a
    /// mismatched member cannot discard the compute already spent on its
    /// predecessors.
    ///
    /// Parallelism lives at exactly one level: the backend that runs each
    /// call serially (the codegen interpreter) fans the batch members
    /// across the rayon worker pool ([`BatchRouting::ParallelAcross`]).
    /// Backends that already parallelize *inside* each call — the CPU
    /// kernel, by row panels or (when a call has fewer row panels than
    /// workers, as every decode call does) by column ranges — and the
    /// simulator map their batch serially instead
    /// ([`BatchRouting::SerialWithin`]): the rayon pool runs a parallel
    /// call nested inside another one inline (it has no work-stealing
    /// scheduler), so fanning out at both levels would only move the
    /// parallelism up to the batch, where a batch with fewer members
    /// than workers leaves threads idle.
    pub fn forward_batch(&self, batch: &[MatrixF32]) -> Result<BatchRun> {
        for (i, a) in batch.iter().enumerate() {
            if a.cols() != self.weights.k() {
                return Err(NmError::DimensionMismatch {
                    expected: format!("every batch member with k = {}", self.weights.k()),
                    found: format!("batch[{i}] is {} x {}", a.rows(), a.cols()),
                });
            }
        }
        let routing = match self.kind {
            // The codegen interpreter walks its workgroups on the calling
            // thread, so it benefits from batch fan-out.
            BackendKind::Codegen => BatchRouting::ParallelAcross,
            // The CPU kernel parallelizes inside each call; under
            // batch-level fan-out those calls would run inline.
            _ => BatchRouting::SerialWithin,
        };
        let t0 = std::time::Instant::now();
        let runs: Vec<Result<ExecRun>> = match routing {
            BatchRouting::ParallelAcross => (0..batch.len())
                .into_par_iter()
                .map(|i| self.forward(&batch[i]))
                .collect(),
            BatchRouting::SerialWithin => batch.iter().map(|a| self.forward(a)).collect(),
        };
        let wall_seconds = t0.elapsed().as_secs_f64();
        Ok(BatchRun {
            runs: runs.into_iter().collect::<Result<_>>()?,
            wall_seconds,
            routing,
        })
    }
}

/// How [`PreparedLayer::forward_batch`] mapped batch members onto the
/// machine — recorded on the [`BatchRun`] so callers (a serving batcher,
/// a bench harness) can attribute the aggregate wall time correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchRouting {
    /// Members fanned across the rayon worker pool; each member ran
    /// serially inside its worker (the codegen interpreter).
    ParallelAcross,
    /// Members mapped serially, one after another; each member
    /// parallelized internally (the CPU kernel by rows or by columns) or
    /// ran the simulator's reference oracle.
    SerialWithin,
}

impl BatchRouting {
    /// Stable identifier (`parallel_across`, `serial_within`) for
    /// artifacts and logs.
    pub fn name(&self) -> &'static str {
        match self {
            BatchRouting::ParallelAcross => "parallel_across",
            BatchRouting::SerialWithin => "serial_within",
        }
    }
}

impl std::fmt::Display for BatchRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one [`PreparedLayer::forward_batch`] call: the
/// per-member [`ExecRun`]s in batch order, plus the two aggregates every
/// caller was previously recomputing — the wall time of the whole batch
/// call and the routing decision that produced it.
///
/// `wall_seconds` is measured around the entire fan-out, so under
/// [`BatchRouting::ParallelAcross`] it is *less* than the sum of the
/// member walls (that overlap is the point of batching); under
/// [`BatchRouting::SerialWithin`] it is their sum plus dispatch overhead.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-member results, in batch order.
    pub runs: Vec<ExecRun>,
    /// Wall-clock seconds of the whole batch call, measured around the
    /// fan-out (not the sum of member walls).
    pub wall_seconds: f64,
    /// How members were mapped onto the machine.
    pub routing: BatchRouting,
}

impl BatchRun {
    /// Number of members in the batch.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Sum of the members' own kernel walls — the serial cost the batch
    /// routing amortized (compare against [`BatchRun::wall_seconds`]).
    pub fn member_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_seconds).sum()
    }

    /// Consume the batch into its per-member runs.
    pub fn into_runs(self) -> Vec<ExecRun> {
        self.runs
    }
}

impl std::fmt::Debug for PreparedLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLayer")
            .field("backend", &self.kind)
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
    use crate::nm::NmVersion;
    use gpu_sim::device::a100_80g;
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
        for backend in BackendKind::all() {
            let layer = s.load_on(sb.clone(), 64, backend).unwrap();
            assert_eq!(layer.backend(), backend);
            let run = layer.forward(&a).unwrap();
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "{backend}: max diff {}",
                run.c.max_abs_diff(&expect)
            );
            assert!(run.wall_seconds > 0.0, "{backend} must report wall time");
            assert_eq!(
                run.isa.is_some(),
                backend != BackendKind::Sim,
                "{backend}: only the simulator reports no host ISA"
            );
            assert_eq!(run.isa, layer.isa());
        }
        // One shape class: a single planning miss, then a cache hit for
        // every further backend.
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
        let layer = s
            .load_on(sb.clone(), 128, BackendKind::Cpu(NmVersion::V3))
            .unwrap();
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
    fn forward_batch_validates_every_member_before_any_work() {
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 8).unwrap();
        let layer = s.load(weights(64, 32, cfg, 3), 8).unwrap();
        let good = MatrixF32::random(8, 64, 4);
        let bad = MatrixF32::random(8, 48, 5);
        let err = layer
            .forward_batch(&[good.clone(), bad, good.clone()])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("batch[1]"), "{msg}: must name the bad member");

        let batch_run = layer.forward_batch(&[good.clone(), good.clone()]).unwrap();
        assert_eq!(batch_run.len(), 2);
        assert!(
            batch_run.wall_seconds > 0.0,
            "aggregate wall time must cover the fan-out"
        );
        let expect = spmm_reference(&good, layer.weights());
        for run in &batch_run.runs {
            assert!(run.c.allclose(&expect, 1e-3, 1e-4));
        }
        assert!(batch_run.member_seconds() > 0.0);
        let empty = layer.forward_batch(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.into_runs().len(), 0);
    }

    #[test]
    fn forward_batch_agrees_on_both_routing_paths() {
        // The CPU kernel maps the batch serially (per-call parallelism),
        // the codegen interpreter fans it across the pool — both must
        // produce the same per-member matrix.
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = weights(96, 64, cfg, 41);
        let batch: Vec<MatrixF32> = (0..3).map(|i| MatrixF32::random(8, 96, 50 + i)).collect();
        let cpu = s
            .load_on(sb.clone(), 8, BackendKind::Cpu(NmVersion::V3))
            .unwrap();
        let codegen = s.load_on(sb.clone(), 8, BackendKind::Codegen).unwrap();
        let serial = cpu.forward_batch(&batch).unwrap();
        let pooled = codegen.forward_batch(&batch).unwrap();
        assert_eq!(serial.routing, BatchRouting::SerialWithin);
        assert_eq!(pooled.routing, BatchRouting::ParallelAcross);
        for ((a, sr), pr) in batch.iter().zip(&serial.runs).zip(&pooled.runs) {
            let expect = spmm_reference(a, &sb);
            assert!(sr.c.allclose(&expect, 1e-3, 1e-4));
            assert!(pr.c.allclose(&expect, 1e-3, 1e-4));
        }
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

        // The simulator stages no format; the pin does not break it.
        let sim = s
            .load_with(sb.clone(), LoadSpec::rows(1).backend(BackendKind::Sim))
            .unwrap();
        assert_eq!(sim.storage(), None);

        // Session-wide pin applies when the spec sets none.
        let mut pinned_session = SessionBuilder::new(a100_80g())
            .storage(pin)
            .build()
            .unwrap();
        assert_eq!(pinned_session.storage(), Some(pin));
        let layer = pinned_session.load(sb.clone(), 1).unwrap();
        assert_eq!(layer.storage(), Some(pin));

        // planned + storage is a contradiction.
        let plan = s.plan(1, 64, 96, cfg).unwrap();
        let err = s
            .load_with(sb.clone(), LoadSpec::rows(1).planned(plan).storage(pin))
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
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
            let sm = layer.state.staging().expect("a CPU staging");
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
        assert_eq!(rm.state.staging().unwrap().layout().sort_window, 1);
        assert_eq!(
            sliced.state.staging().unwrap().layout(),
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
        let layer = s
            .load_planned(plan, sb, BackendKind::Cpu(NmVersion::V3))
            .unwrap();
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
        // load / load_on must be byte-for-byte equivalent to the bare and
        // backend-carrying specs: same plan key, same backend, same math.
        let mut s = session();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = Arc::new(weights(96, 64, cfg, 61));
        let a = MatrixF32::random(16, 96, 62);

        let via_load = s.load(sb.clone(), 16).unwrap();
        let via_spec = s.load_with(sb.clone(), LoadSpec::rows(16)).unwrap();
        assert_eq!(via_load.plan().key, via_spec.plan().key);
        assert_eq!(via_load.backend(), via_spec.backend());

        let on = s.load_on(sb.clone(), 16, BackendKind::Codegen).unwrap();
        let spec_on = s
            .load_with(sb.clone(), LoadSpec::rows(16).backend(BackendKind::Codegen))
            .unwrap();
        assert_eq!(on.plan().key, spec_on.plan().key);
        assert_eq!(spec_on.backend(), BackendKind::Codegen);
        let (r1, r2) = (on.forward(&a).unwrap(), spec_on.forward(&a).unwrap());
        assert_eq!(r1.c.as_slice(), r2.c.as_slice());
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
        let plan = s.plan(64, 64, 96, cfg).unwrap();

        let err = s
            .load_with(
                sb.clone(),
                LoadSpec::rows(64)
                    .planned(plan)
                    .shape_class(ShapeClass::Prefill),
            )
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");

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
        let layer = s.load_with(sb, LoadSpec::rows(64).planned(plan)).unwrap();
        let after = s.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(layer.backend(), s.backend());
    }

    #[test]
    fn isa_override_pins_every_loaded_layer() {
        let mut s = SessionBuilder::new(a100_80g())
            .isa(Isa::Scalar)
            .build()
            .unwrap();
        let cfg = NmConfig::new(2, 8, 8).unwrap();
        let sb = Arc::new(weights(64, 32, cfg, 31));
        let layer = s.load(sb.clone(), 16).unwrap();
        assert_eq!(layer.isa(), Some(Isa::Scalar));
        // The codegen twin takes the same pin, so it reproduces the CPU
        // layer bit for bit.
        let codegen = s.load_on(sb, 16, BackendKind::Codegen).unwrap();
        assert_eq!(codegen.isa(), Some(Isa::Scalar));
        let a = MatrixF32::random(16, 64, 33);
        let (cpu_run, gen_run) = (layer.forward(&a).unwrap(), codegen.forward(&a).unwrap());
        assert_eq!(cpu_run.c.as_slice(), gen_run.c.as_slice());
        // The simulator is unaffected by the pin.
        let sim = s
            .load_on(weights(64, 32, cfg, 32), 16, BackendKind::Sim)
            .unwrap();
        assert_eq!(sim.isa(), None);
    }

    #[test]
    fn unsupported_isa_override_fails_at_build_time() {
        // An ISA foreign to this architecture can never be executable
        // here, so the builder must refuse before any layer loads.
        let foreign = if cfg!(target_arch = "x86_64") {
            Isa::Neon
        } else {
            Isa::Avx2
        };
        let err = SessionBuilder::new(a100_80g())
            .isa(foreign)
            .build()
            .unwrap_err();
        assert!(matches!(err, NmError::Unsupported { .. }), "{err}");
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
                .backend(BackendKind::Cpu(NmVersion::V3))
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
