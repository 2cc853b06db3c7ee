//! Execution backends: one trait, two ways to run a plan.
//!
//! A [`Plan`] records *what* to run — kernel family and
//! auto-tuned blocking. [`ExecBackend`] decides *where*:
//!
//! * [`SimBackend`] — the original path: the functional face of the
//!   simulated GPU kernels (tile fills into emulated shared memory,
//!   index-directed gathers), producing event counts and a timing-model
//!   report alongside the numerics.
//! * [`CpuBackend`] — the native path: the paper's V1→V3 ladder executed
//!   for real on the host ([`crate::cpu`]), with the plan's blocking
//!   parameters driving the CPU tile sizes.
//!
//! ## The offline/online split
//!
//! The trait mirrors the paper's performance accounting: everything that
//! depends only on the *weights* — layout transformation, the
//! simulator's `col_info` packing, micro-kernel dispatch — is **offline**
//! work done once by
//! [`ExecBackend::prepare`], which returns an opaque [`PreparedState`];
//! the **online** kernel is [`ExecBackend::run_prepared`], which may be
//! called any number of times against the same state without repeating
//! the staging. [`ExecBackend::run`] is the convenience composition for
//! one-shot callers. The handle-based [`Session`](crate::session) API owns
//! this amortization for library users; code outside the crate should go
//! through it rather than drive backends directly.
//!
//! Every backend returns an [`ExecRun`]: the computed matrix, the
//! **measured wall-clock time** of the online execution, and the plan's
//! simulated estimate for the same kernel family, so callers can put model
//! time and real time side by side. [`BackendKind`] is the cheap copyable
//! selector; [`BackendKind::instantiate`] turns it into a boxed backend
//! for dynamic dispatch.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::sparse::NmSparseMatrix;

use crate::cpu::{spmm_cpu_prepared, CpuPrepared};
use crate::nm::{NmSpmmKernel, NmVersion};
use crate::nmsparse::NmSparseKernel;
use crate::plan::{EstimateSummary, KernelChoice, Plan};
use crate::simd::{Isa, MicroKernel};
use crate::sputnik::SputnikKernel;
use crate::SimRun;
use gpu_sim::device::DeviceConfig;
use std::any::Any;
use std::time::Instant;

/// Environment variable naming the default execution backend
/// ([`BackendKind::from_env`]): one of the [`BackendKind::name`]
/// identifiers (`sim`, `cpu_v1`, `cpu_v2`, `cpu_v3`, `codegen`). An
/// explicit [`SessionBuilder::backend`](crate::session::SessionBuilder::backend)
/// call always wins over this variable.
pub const BACKEND_ENV: &str = "NM_SPMM_BACKEND";

/// Which execution backend to run a plan through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulated GPU kernels (functional face + timing model).
    Sim,
    /// The native CPU ladder at the given optimization step.
    Cpu(NmVersion),
    /// The WGSL code-generation backend: the plan lowered to a validated
    /// compute shader, executed by the deterministic interpreter
    /// ([`crate::codegen::CodegenBackend`]).
    Codegen,
}

impl BackendKind {
    /// Every backend: simulator first, the CPU ladder in step order,
    /// then the codegen path.
    pub fn all() -> [BackendKind; 5] {
        [
            BackendKind::Sim,
            BackendKind::Cpu(NmVersion::V1),
            BackendKind::Cpu(NmVersion::V2),
            BackendKind::Cpu(NmVersion::V3),
            BackendKind::Codegen,
        ]
    }

    /// Stable identifier (`sim`, `cpu_v1`, `cpu_v2`, `cpu_v3`,
    /// `codegen`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Cpu(NmVersion::V1) => "cpu_v1",
            BackendKind::Cpu(NmVersion::V2) => "cpu_v2",
            BackendKind::Cpu(NmVersion::V3) => "cpu_v3",
            BackendKind::Codegen => "codegen",
        }
    }

    /// Inverse of [`BackendKind::name`].
    pub fn from_name(name: &str) -> Result<Self> {
        Self::all()
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| NmError::Persist {
                reason: format!("unknown backend `{name}`"),
            })
    }

    /// The backend requested through the [`BACKEND_ENV`] environment
    /// variable: `None` when unset or empty, the parsed kind otherwise.
    ///
    /// # Errors
    /// [`NmError::Persist`] when the variable holds an unrecognized
    /// backend name — validated up front, exactly like `NM_SPMM_ISA` and
    /// `NM_SPMM_STORAGE`, so a typo can never silently run on the wrong
    /// substrate.
    pub fn from_env() -> Result<Option<Self>> {
        match std::env::var(BACKEND_ENV) {
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => Self::from_name(&v).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Box the backend this selector names, with default micro-kernel
    /// dispatch (the CPU ladder selects its ISA per preparation).
    pub fn instantiate(&self) -> Box<dyn ExecBackend> {
        match self {
            BackendKind::Sim => Box::new(SimBackend),
            BackendKind::Cpu(v) => Box::new(CpuBackend::new(*v)),
            BackendKind::Codegen => Box::new(crate::codegen::CodegenBackend::new()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "simulated GPU",
            BackendKind::Cpu(NmVersion::V1) => "native CPU V1",
            BackendKind::Cpu(NmVersion::V2) => "native CPU V2",
            BackendKind::Cpu(NmVersion::V3) => "native CPU V3",
            BackendKind::Codegen => "WGSL codegen",
        })
    }
}

/// The result of executing a plan through a backend.
#[derive(Debug, Clone)]
pub struct ExecRun {
    /// The computed matrix `C[m][n]`.
    pub c: MatrixF32,
    /// The backend that produced it.
    pub backend: BackendKind,
    /// Measured wall-clock seconds of the **online** execution only (host
    /// time; for the simulator this is the cost of the functional
    /// emulation, not the modeled GPU latency — that lives in `estimate`).
    ///
    /// The clock starts *after* the offline preparation
    /// ([`ExecBackend::prepare`] — `B′` block staging, the simulator's
    /// `col_info` packing, ISA dispatch), so repeated calls against one
    /// [`PreparedLayer`](crate::session::PreparedLayer) measure exactly
    /// the amortized per-call cost the paper's accounting describes. The
    /// CPU ladder's zero-padded copy of `A` (only when `k` is not a
    /// multiple of `M`) *is* included: it depends on the activations and
    /// is genuinely online work.
    pub wall_seconds: f64,
    /// The plan's simulated estimate for the kernel family this backend
    /// ran (`None` when the plan carries no estimate for it).
    pub estimate: Option<EstimateSummary>,
    /// The instruction set the micro-kernel executed with; only the
    /// [`CpuBackend`] selects one (runtime dispatch, see
    /// [`crate::simd::MicroKernel`]) — the simulator has no host ISA to
    /// report.
    pub isa: Option<Isa>,
    /// Simulated event counts; only the [`SimBackend`] produces them.
    pub stats: Option<gpu_sim::KernelStats>,
    /// The simulated timing-model report; only the [`SimBackend`]
    /// produces one.
    pub report: Option<gpu_sim::LaunchReport>,
}

impl ExecRun {
    /// Measured useful throughput in GFLOP/s, given the problem's useful
    /// flop count (`2·m·n·w`).
    pub fn gflops(&self, useful_flops: f64) -> f64 {
        useful_flops / self.wall_seconds / 1e9
    }
}

/// Opaque product of a backend's offline preparation: everything derived
/// from the *weights* alone, reusable across any number of online runs.
///
/// Each backend downcasts its own state back out via
/// [`PreparedState::as_any`]; handing one backend's state to another is a
/// structured error, never undefined behavior. The `Send + Sync` bound is
/// what lets one [`PreparedLayer`](crate::session::PreparedLayer) serve
/// concurrent callers.
pub trait PreparedState: Send + Sync {
    /// Downcasting hook for the owning backend.
    fn as_any(&self) -> &dyn Any;

    /// The micro-kernel ISA this preparation dispatched to, when the
    /// backend runs on the host (CPU ladder); `None` for the simulator.
    fn isa(&self) -> Option<Isa> {
        None
    }

    /// The `B′` storage format this preparation staged, when the backend
    /// stages one (CPU ladder); `None` for the simulator.
    fn storage(&self) -> Option<nm_core::sliced::StorageFormat> {
        None
    }
}

/// A way to execute a resolved plan on concrete operands.
///
/// Implementations split the work along the paper's offline/online line:
/// [`ExecBackend::prepare`] runs once per weight matrix,
/// [`ExecBackend::run_prepared`] any number of times per activation batch.
pub trait ExecBackend: Send + Sync {
    /// The selector this backend answers to.
    fn kind(&self) -> BackendKind;

    /// Offline step: stage everything derivable from the weights (`B′`
    /// layout transformation, the simulator's `col_info` packing,
    /// micro-kernel dispatch)
    /// under `plan` so [`ExecBackend::run_prepared`] can amortize it.
    ///
    /// Implementations must return structured errors (never panic) when
    /// the plan's blocking cannot drive this backend.
    fn prepare(
        &self,
        dev: &DeviceConfig,
        plan: &Plan,
        sb: &NmSparseMatrix,
    ) -> Result<Box<dyn PreparedState>>;

    /// Online step: execute `C = A ⊛ (B′, D)` against a state this same
    /// backend prepared from this same `sb`. The returned
    /// [`ExecRun::wall_seconds`] covers this call only — no staging cost.
    ///
    /// # Errors
    /// A state prepared by a *different* backend is rejected with a
    /// structured [`NmError::InvalidConfig`]; operand mismatches are
    /// [`NmError::DimensionMismatch`].
    fn run_prepared(
        &self,
        dev: &DeviceConfig,
        plan: &Plan,
        state: &dyn PreparedState,
        a: &MatrixF32,
        sb: &NmSparseMatrix,
    ) -> Result<ExecRun>;

    /// One-shot convenience: prepare, then run once. Callers executing the
    /// same weights repeatedly should hold a
    /// [`PreparedLayer`](crate::session::PreparedLayer) instead.
    fn run(
        &self,
        dev: &DeviceConfig,
        plan: &Plan,
        a: &MatrixF32,
        sb: &NmSparseMatrix,
    ) -> Result<ExecRun> {
        let state = self.prepare(dev, plan, sb)?;
        self.run_prepared(dev, plan, &*state, a, sb)
    }
}

fn foreign_state_error(backend: BackendKind) -> NmError {
    NmError::InvalidConfig {
        reason: format!(
            "prepared state was not produced by the {backend} backend \
             (prepare and run_prepared must use the same backend)"
        ),
    }
}

/// The simulated-GPU backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

/// The simulator's prepared state. The functional emulation re-fills its
/// emulated shared-memory tiles on every launch — exactly like the real
/// GPU kernel — so there is nothing weight-derived to cache; the state
/// only proves the prepare/run pairing was respected.
struct SimPrepared;

impl PreparedState for SimPrepared {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl SimBackend {
    /// The family actually executed — kernels without a functional face
    /// fall back to NM-SpMM V3 with the plan's tuned blocking: `Dense`
    /// (needs a dense `B` operand) and `SparseTc` (analytic model only) —
    /// the numerics are identical, only the event counts differ from the
    /// analytic winner.
    fn executed_family(plan: &Plan) -> KernelChoice {
        let has_functional_face =
            matches!(plan.choice, KernelChoice::NmSparse | KernelChoice::Sputnik)
                || plan.choice.nm_version().is_some();
        if has_functional_face {
            plan.choice
        } else {
            KernelChoice::NmV3
        }
    }
}

impl ExecBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn prepare(
        &self,
        _dev: &DeviceConfig,
        _plan: &Plan,
        _sb: &NmSparseMatrix,
    ) -> Result<Box<dyn PreparedState>> {
        Ok(Box::new(SimPrepared))
    }

    /// `estimate` must describe the same family the wall clock measured,
    /// so everything dispatches on the executed family (see
    /// `executed_family` above).
    fn run_prepared(
        &self,
        dev: &DeviceConfig,
        plan: &Plan,
        state: &dyn PreparedState,
        a: &MatrixF32,
        sb: &NmSparseMatrix,
    ) -> Result<ExecRun> {
        if state.as_any().downcast_ref::<SimPrepared>().is_none() {
            return Err(foreign_state_error(self.kind()));
        }
        let executed = Self::executed_family(plan);
        let t0 = Instant::now();
        let SimRun { c, stats, report } = match executed {
            KernelChoice::NmSparse => NmSparseKernel.run(dev, a, sb),
            KernelChoice::Sputnik => SputnikKernel.run(dev, a, sb),
            choice => {
                let version = choice.nm_version().unwrap_or(NmVersion::V3);
                NmSpmmKernel::new(version, plan.params).run(dev, a, sb)
            }
        }?;
        let wall_seconds = t0.elapsed().as_secs_f64();
        Ok(ExecRun {
            c,
            backend: BackendKind::Sim,
            wall_seconds,
            estimate: plan.estimates.get(executed),
            isa: None,
            stats: Some(stats),
            report: Some(report),
        })
    }
}

impl PreparedState for CpuPrepared {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn isa(&self) -> Option<Isa> {
        Some(CpuPrepared::isa(self))
    }

    fn storage(&self) -> Option<nm_core::sliced::StorageFormat> {
        Some(CpuPrepared::format(self))
    }
}

/// The native CPU backend at one step of the V1→V3 ladder.
#[derive(Debug, Clone, Copy)]
pub struct CpuBackend {
    version: NmVersion,
    /// Explicit micro-kernel, overriding the per-preparation runtime
    /// dispatch — how a [`Session`](crate::session::Session) pins one ISA
    /// across every layer it loads.
    kernel: Option<MicroKernel>,
}

impl CpuBackend {
    /// Backend for one ladder step with runtime ISA dispatch.
    pub fn new(version: NmVersion) -> Self {
        Self {
            version,
            kernel: None,
        }
    }

    /// Backend for one ladder step pinned to an explicit micro-kernel.
    pub fn with_kernel(version: NmVersion, kernel: MicroKernel) -> Self {
        Self {
            version,
            kernel: Some(kernel),
        }
    }

    /// The ladder step this backend executes.
    pub fn version(&self) -> NmVersion {
        self.version
    }
}

impl ExecBackend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu(self.version)
    }

    /// The offline step: tile sizes derived from the plan's auto-tuned
    /// blocking ([`CpuTiling::derive`](crate::cpu::CpuTiling::derive)),
    /// `B′` staged block-contiguously (the kernel gathers `A` in place, so
    /// nothing else is staged), and the micro-kernel selected once
    /// ([`crate::simd::MicroKernel::select`], unless this backend pins
    /// one). A blocking that cannot drive the CPU tiles — e.g. `ns` not a
    /// multiple of the operand's vector length `L` — is a structured
    /// [`NmError::InvalidBlocking`].
    ///
    /// On the V3 backend, a plan carrying **measured** evidence overrides
    /// the cost-model derivation: the preparation stages with the tile
    /// geometry and storage format that actually measured fastest on this
    /// host (see `CpuPrepared::for_plan`). The V1/V2 ablation steps keep
    /// the cost-model derivation.
    fn prepare(
        &self,
        _dev: &DeviceConfig,
        plan: &Plan,
        sb: &NmSparseMatrix,
    ) -> Result<Box<dyn PreparedState>> {
        let prep = CpuPrepared::for_plan(self.version, plan, sb, self.kernel)?;
        Ok(Box::new(prep))
    }

    /// The online kernel only — `wall_seconds` excludes every cost
    /// [`CpuBackend::prepare`] already paid, matching the paper's
    /// accounting for its `col_info` pre-processing.
    fn run_prepared(
        &self,
        _dev: &DeviceConfig,
        plan: &Plan,
        state: &dyn PreparedState,
        a: &MatrixF32,
        sb: &NmSparseMatrix,
    ) -> Result<ExecRun> {
        let Some(prep) = state.as_any().downcast_ref::<CpuPrepared>() else {
            return Err(foreign_state_error(self.kind()));
        };
        if prep.version() != self.version {
            return Err(foreign_state_error(self.kind()));
        }
        let estimate = plan.estimates.get(match self.version {
            NmVersion::V1 => KernelChoice::NmV1,
            NmVersion::V2 => KernelChoice::NmV2,
            NmVersion::V3 => KernelChoice::NmV3,
        });
        let t0 = Instant::now();
        let c = spmm_cpu_prepared(a, sb, prep)?;
        let wall_seconds = t0.elapsed().as_secs_f64();
        Ok(ExecRun {
            c,
            backend: BackendKind::Cpu(self.version),
            wall_seconds,
            estimate,
            isa: Some(prep.isa()),
            stats: None,
            report: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use gpu_sim::device::a100_80g;
    use nm_core::pattern::NmConfig;
    use nm_core::prune::PrunePolicy;
    use nm_core::spmm::spmm_reference;

    #[test]
    fn backend_names_round_trip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()).unwrap(), kind);
            assert_eq!(kind.instantiate().kind(), kind);
            assert!(!kind.to_string().is_empty());
        }
        assert!(BackendKind::from_name("tpu").is_err());
    }

    #[test]
    fn every_backend_matches_the_reference() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(96, 256, 192, cfg).unwrap();
        let a = MatrixF32::random(96, 192, 11);
        let b = MatrixF32::random(192, 256, 12);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 13 }).unwrap();
        let expect = spmm_reference(&a, &sb);
        for kind in BackendKind::all() {
            let run = kind.instantiate().run(&dev, &plan, &a, &sb).unwrap();
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "{kind}: max diff {}",
                run.c.max_abs_diff(&expect)
            );
            assert!(run.wall_seconds > 0.0, "{kind}: wall clock must tick");
            assert_eq!(run.backend, kind);
            // The simulator and the codegen interpreter both account
            // events and produce a timing-model report; the native CPU
            // ladder does neither.
            let accounted = kind == BackendKind::Sim || kind == BackendKind::Codegen;
            assert_eq!(run.stats.is_some(), accounted);
            assert_eq!(run.report.is_some(), accounted);
            // The CPU backend reports which micro-kernel ISA ran; the
            // simulator has none. Whatever was selected must be a
            // host-supported ISA — dispatch can never name an ISA the
            // host cannot execute.
            assert_eq!(run.isa.is_some(), kind != BackendKind::Sim, "{kind}");
            if let Some(isa) = run.isa {
                assert!(isa.supported(), "{kind}: selected ISA must run here");
            }
            assert!(run.estimate.is_some(), "{kind}: NM estimates exist here");
            assert!(run.gflops(2.0 * 96.0 * 256.0 * 48.0) > 0.0);
        }
    }

    #[test]
    fn prepared_state_is_reusable_across_runs() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(64, 128, 128, cfg).unwrap();
        let b = MatrixF32::random(128, 128, 21);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        for kind in BackendKind::all() {
            let backend = kind.instantiate();
            let state = backend.prepare(&dev, &plan, &sb).unwrap();
            for seed in 0..3u64 {
                let a = MatrixF32::random(64, 128, 30 + seed);
                let run = backend.run_prepared(&dev, &plan, &*state, &a, &sb).unwrap();
                let expect = spmm_reference(&a, &sb);
                assert!(
                    run.c.allclose(&expect, 1e-3, 1e-4),
                    "{kind} seed {seed}: max diff {}",
                    run.c.max_abs_diff(&expect)
                );
            }
            // The state's ISA report matches the backend family.
            assert_eq!(state.isa().is_some(), kind != BackendKind::Sim, "{kind}");
        }
    }

    #[test]
    fn foreign_prepared_state_is_a_structured_error() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(64, 128, 128, cfg).unwrap();
        let a = MatrixF32::random(64, 128, 1);
        let b = MatrixF32::random(128, 128, 2);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();

        let sim = SimBackend;
        let cpu = CpuBackend::new(NmVersion::V3);
        let sim_state = sim.prepare(&dev, &plan, &sb).unwrap();
        let cpu_state = cpu.prepare(&dev, &plan, &sb).unwrap();

        // Crossing the states over must fail structurally, not compute.
        let err = cpu
            .run_prepared(&dev, &plan, &*sim_state, &a, &sb)
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
        let err = sim
            .run_prepared(&dev, &plan, &*cpu_state, &a, &sb)
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");

        // So must handing a V3 preparation to a V1 backend.
        let err = CpuBackend::new(NmVersion::V1)
            .run_prepared(&dev, &plan, &*cpu_state, &a, &sb)
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn pinned_kernel_drives_every_preparation() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(32, 64, 64, cfg).unwrap();
        let b = MatrixF32::random(64, 64, 3);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let backend = CpuBackend::with_kernel(NmVersion::V2, MicroKernel::scalar());
        let state = backend.prepare(&dev, &plan, &sb).unwrap();
        assert_eq!(state.isa(), Some(Isa::Scalar));
        let a = MatrixF32::random(32, 64, 4);
        let run = backend.run_prepared(&dev, &plan, &*state, &a, &sb).unwrap();
        assert_eq!(run.isa, Some(Isa::Scalar));
        assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
    }

    #[test]
    fn plan_storage_lane_drives_the_staged_format() {
        use crate::plan::ShapeClass;
        use nm_core::sliced::{SlicedLayout, StorageFormat};
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let b = MatrixF32::random(128, 128, 5);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let a = MatrixF32::random(1, 128, 6);
        let expect = spmm_reference(&a, &sb);
        let backend = CpuBackend::new(NmVersion::V3);

        // A sliced-pinned plan stages SELL-C-σ.
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let pinned = Planner::new(dev.clone())
            .plan_stored(ShapeClass::Decode(1), pin, 1, 128, 128, cfg)
            .unwrap();
        let state = backend.prepare(&dev, &pinned, &sb).unwrap();
        let prep = state.as_any().downcast_ref::<CpuPrepared>().unwrap();
        assert_eq!(prep.format(), pin);
        let run = backend
            .run_prepared(&dev, &pinned, &*state, &a, &sb)
            .unwrap();
        assert!(run.c.allclose(&expect, 1e-3, 1e-4));

        // Measured evidence carries the format too.
        let auto = Planner::new(dev.clone())
            .plan_as(ShapeClass::Decode(1), 1, 128, 128, cfg)
            .unwrap();
        let spec = crate::measure::MeasureSpec {
            warmup_iters: 0,
            timed_iters: 1,
            tiling_variants: false,
        };
        let outcome = crate::measure::measure(&pinned, &sb, 1, None, spec).unwrap();
        assert_eq!(outcome.best.storage, pin, "pin restricts candidates");
        let host = crate::plan::PlanHost {
            isa: MicroKernel::select().unwrap().isa().name().to_string(),
            threads: rayon::current_num_threads(),
        };
        let measured = auto.with_measured(host, outcome.best).unwrap();
        let state = backend.prepare(&dev, &measured, &sb).unwrap();
        let prep = state.as_any().downcast_ref::<CpuPrepared>().unwrap();
        assert_eq!(prep.format(), pin, "measured storage wins on the auto lane");
        // A different ladder step ignores the foreign evidence and stays
        // on the key's lane.
        let v1 = CpuBackend::new(NmVersion::V1);
        let state = v1.prepare(&dev, &measured, &sb).unwrap();
        let prep = state.as_any().downcast_ref::<CpuPrepared>().unwrap();
        assert_eq!(prep.format(), StorageFormat::RowMajor);
    }

    #[test]
    fn cpu_backend_rejects_unalignable_blocking_with_structured_error() {
        // L = 48 divides no autotune candidate, so the plan falls back to
        // the Para_Init_Table preset whose ns is not a multiple of L; the
        // CPU backend must refuse with InvalidBlocking, not panic.
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 16, 48).unwrap();
        let plan = Planner::new(dev.clone()).plan(64, 96, 96, cfg).unwrap();
        assert!(!plan.params.ns.is_multiple_of(48), "setup: preset expected");
        let a = MatrixF32::random(64, 96, 1);
        let b = MatrixF32::random(96, 96, 2);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let err = CpuBackend::new(NmVersion::V3)
            .run(&dev, &plan, &a, &sb)
            .unwrap_err();
        assert!(matches!(err, NmError::InvalidBlocking { .. }), "{err}");
    }
}
