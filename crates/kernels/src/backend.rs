//! Execution backends: one preparation step, a state that runs itself.
//!
//! A [`Plan`] records *what* to run — kernel family and auto-tuned
//! blocking. [`BackendKind`] says *where*:
//!
//! * [`BackendKind::Sim`] — the simulated GPU: the reference oracle
//!   ([`spmm_reference`]) computes `C`, and the simulated kernel of the
//!   plan's family attaches its predicted event counts and timing-model
//!   report. The simulator predicts; it does not multiply.
//! * [`BackendKind::Cpu`] — the native path: one CPU kernel executed for
//!   real on the host ([`crate::cpu`]), with the plan's blocking
//!   parameters driving the CPU tile sizes.
//! * [`BackendKind::Codegen`] — the plan lowered to a WGSL shader and run
//!   by the deterministic interpreter ([`crate::codegen`]).
//!
//! ## The offline/online split
//!
//! The split mirrors the paper's performance accounting: everything that
//! depends only on the *weights* — layout transformation, the
//! simulator's `col_info` packing ratio, micro-kernel dispatch — is
//! **offline** work done once by [`BackendKind::prepare`], which returns a
//! boxed [`PreparedState`]; the **online** kernel is
//! [`PreparedState::run`], which may be called any number of times
//! without repeating the staging. The state owns everything the online
//! step reads — the CPU state its staged `B′`, the simulator and codegen
//! states the compressed matrix through an `Arc` clone, and each the
//! plan's estimate and whatever device and blocking its report needs —
//! so `run` takes the activations alone. The handle-based
//! [`Session`](crate::session) API owns this amortization for library
//! users; code outside the crate should go through it rather than
//! prepare states directly.
//!
//! Every state's `run` returns an [`ExecRun`]: the computed matrix, the
//! **measured wall-clock time** of the online execution, and the plan's
//! simulated estimate for the same kernel family, so callers can put model
//! time and real time side by side.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::sparse::NmSparseMatrix;
use nm_core::spmm::spmm_reference;
use std::sync::Arc;

use crate::codegen::CodegenPrepared;
use crate::cpu::CpuPrepared;
use crate::nm::{NmSpmmKernel, NmVersion};
use crate::nmsparse::NmSparseKernel;
use crate::params::BlockingParams;
use crate::plan::{EstimateSummary, KernelChoice, Plan};
use crate::simd::{Isa, MicroKernel};
use crate::sputnik::SputnikKernel;
use gpu_sim::device::DeviceConfig;
use std::time::Instant;

/// Environment variable naming the default execution backend
/// ([`BackendKind::from_env`]): one of the [`BackendKind::name`]
/// identifiers (`sim`, `cpu_v3`, `codegen`). An explicit
/// [`SessionBuilder::backend`](crate::session::SessionBuilder::backend)
/// call always wins over this variable.
pub const BACKEND_ENV: &str = "NM_SPMM_BACKEND";

/// Which execution backend to run a plan through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulated GPU: the reference oracle's result with the
    /// simulator's predicted event counts and timing attached.
    Sim,
    /// The native CPU kernel. Only [`NmVersion::V3`] names it: the paper's
    /// V1/V2 steps exist in the simulator and the WGSL families, not on
    /// the CPU, and [`BackendKind::prepare`] rejects them.
    Cpu(NmVersion),
    /// The WGSL code-generation backend: the plan lowered to a validated
    /// compute shader, executed by the deterministic interpreter
    /// ([`CodegenPrepared`]).
    Codegen,
}

impl BackendKind {
    /// Every backend: simulator, native CPU, codegen.
    pub fn all() -> [BackendKind; 3] {
        [
            BackendKind::Sim,
            BackendKind::Cpu(NmVersion::V3),
            BackendKind::Codegen,
        ]
    }

    /// Stable identifier (`sim`, `cpu_v3`, `codegen`); a rejected CPU
    /// payload keeps its step's name (`cpu_v1`, `cpu_v2`) for the error.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Cpu(NmVersion::V1) => "cpu_v1",
            BackendKind::Cpu(NmVersion::V2) => "cpu_v2",
            BackendKind::Cpu(NmVersion::V3) => "cpu_v3",
            BackendKind::Codegen => "codegen",
        }
    }

    /// Inverse of [`BackendKind::name`] over [`BackendKind::all`]: any
    /// other name, `cpu_v1` and `cpu_v2` included, is unknown.
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

    /// `self`, or [`NmError::Unsupported`] for `Cpu(V1)` and `Cpu(V2)`: the
    /// CPU runs one kernel, and a ladder step it does not have is never
    /// aliased.
    pub(crate) fn supported(self) -> Result<Self> {
        match self {
            BackendKind::Cpu(NmVersion::V1 | NmVersion::V2) => Err(NmError::Unsupported {
                reason: format!(
                    "backend `{}`: the native CPU runs one kernel, `cpu_v3`; the \
                     paper's V1/V2 steps live in the simulator and the WGSL families",
                    self.name()
                ),
            }),
            kind => Ok(kind),
        }
    }

    /// The offline step: stage everything derivable from the weights
    /// under `plan` and return the state whose [`PreparedState::run`]
    /// executes it.
    ///
    /// * `Sim` measures the `col_info` packing ratio of the predicted
    ///   NM-SpMM launch once per weight.
    /// * `Cpu` stages `B′` ([`CpuPrepared`]): tile sizes derived from the
    ///   plan's auto-tuned blocking
    ///   ([`CpuTiling::derive`](crate::cpu::CpuTiling::derive)) or, when
    ///   the plan carries **measured** evidence, the tile geometry and
    ///   storage format that measured fastest on this host.
    /// * `Codegen` stages the same CPU twin, then lowers, emits and
    ///   validates the WGSL kernel ([`CodegenPrepared`]).
    ///
    /// `kernel` pins the micro-kernel of the CPU and codegen preparations
    /// (`None` runs [`MicroKernel::select`]); the simulator has no host
    /// ISA and ignores it. A state that reads the compressed matrix
    /// online keeps a clone of the `Arc`, never a copy of the matrix.
    ///
    /// # Errors
    /// [`NmError::Unsupported`] for `Cpu(V1)` and `Cpu(V2)`;
    /// [`NmError::InvalidBlocking`] when the plan's blocking cannot drive
    /// the CPU tiles — e.g. `ns` not a multiple of the operand's vector
    /// length `L`; never a panic.
    pub fn prepare(
        self,
        dev: &DeviceConfig,
        plan: &Plan,
        sb: &Arc<NmSparseMatrix>,
        kernel: Option<MicroKernel>,
    ) -> Result<Box<dyn PreparedState>> {
        Ok(match self.supported()? {
            BackendKind::Sim => Box::new(SimPrepared::new(dev, plan, sb)?),
            BackendKind::Cpu(_) => Box::new(CpuPrepared::for_plan(plan, sb, kernel)?),
            BackendKind::Codegen => Box::new(CodegenPrepared::new(dev, plan, sb, kernel)?),
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "simulated GPU",
            BackendKind::Cpu(NmVersion::V1) => "native CPU V1 (unsupported)",
            BackendKind::Cpu(NmVersion::V2) => "native CPU V2 (unsupported)",
            BackendKind::Cpu(NmVersion::V3) => "native CPU",
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
    /// time; for the simulator this is the cost of the reference oracle
    /// plus the prediction, not the modeled GPU latency — that lives in
    /// `estimate` and `report`).
    ///
    /// The clock starts *after* the offline preparation
    /// ([`BackendKind::prepare`] — `B′` block staging, the simulator's
    /// `col_info` packing ratio, ISA dispatch), so repeated calls against one
    /// [`PreparedLayer`](crate::session::PreparedLayer) measure exactly
    /// the amortized per-call cost the paper's accounting describes. The
    /// CPU kernel's zero-padded copy of `A` (only when `k` is not a
    /// multiple of `M`) *is* included: it depends on the activations and
    /// is genuinely online work.
    pub wall_seconds: f64,
    /// The plan's simulated estimate for the kernel family this backend
    /// ran (`None` when the plan carries no estimate for it).
    pub estimate: Option<EstimateSummary>,
    /// The instruction set the micro-kernel executed with: the CPU
    /// kernel's, or the ISA the codegen backend's CPU twin dispatched to
    /// (runtime dispatch, see [`crate::simd::MicroKernel`]). `None` on the
    /// simulator, which has no host ISA to report.
    pub isa: Option<Isa>,
    /// Simulated event counts: the simulator's prediction, or the codegen
    /// interpreter's counts; `None` on the native CPU kernel.
    pub stats: Option<gpu_sim::KernelStats>,
    /// The simulated timing-model report, from the simulator or the
    /// codegen backend; `None` on the native CPU kernel.
    pub report: Option<gpu_sim::LaunchReport>,
}

impl ExecRun {
    /// Measured useful throughput in GFLOP/s, given the problem's useful
    /// flop count (`2·m·n·w`).
    pub fn gflops(&self, useful_flops: f64) -> f64 {
        useful_flops / self.wall_seconds / 1e9
    }
}

/// The product of [`BackendKind::prepare`]: everything derived from the
/// *weights* alone, and the online step that runs against it any number
/// of times.
///
/// The `Send + Sync` bound is what lets one
/// [`PreparedLayer`](crate::session::PreparedLayer) serve concurrent
/// callers.
pub trait PreparedState: Send + Sync {
    /// Online step: execute `C = A ⊛ (B′, D)`. The returned
    /// [`ExecRun::wall_seconds`] covers this call only — no staging cost.
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] when `a`'s depth is not the prepared
    /// weights' `k`.
    fn run(&self, a: &MatrixF32) -> Result<ExecRun>;

    /// The micro-kernel ISA this preparation dispatched to, when the
    /// backend runs on the host (the CPU kernel, and the codegen
    /// backend's CPU twin); `None` for the simulator.
    fn isa(&self) -> Option<Isa> {
        None
    }

    /// The `B′` storage format this preparation staged, when the backend
    /// stages one (the CPU kernel and the codegen backend); `None` for the
    /// simulator.
    fn storage(&self) -> Option<nm_core::sliced::StorageFormat> {
        None
    }
}

/// The simulator's prepared state: the predicted family with the plan's
/// blocking and estimate, the device it predicts for, the weight-derived
/// `col_info` packing ratio of the predicted NM-SpMM launch (`None` when
/// that launch does not pack or the family is a baseline), and the
/// weights the reference oracle and Sputnik's prediction read.
struct SimPrepared {
    dev: DeviceConfig,
    family: KernelChoice,
    params: BlockingParams,
    estimate: Option<EstimateSummary>,
    packing_ratio: Option<f64>,
    sb: Arc<NmSparseMatrix>,
}

impl SimPrepared {
    /// The offline step: the `col_info` packing ratio of `sb` at the
    /// predicted NM-SpMM launch's blocking, measured once per weight.
    ///
    /// The predicted family is the plan's choice, except that `Dense` and
    /// `SparseTc` fall back to NM-SpMM V3 with the plan's tuned blocking,
    /// so the counts always describe an N:M kernel over the layer's
    /// sparse weights (`sweep`'s energy column reads them). `estimate`,
    /// `stats` and `report` all describe that family.
    fn new(dev: &DeviceConfig, plan: &Plan, sb: &Arc<NmSparseMatrix>) -> Result<Self> {
        let family = match plan.choice {
            KernelChoice::Dense | KernelChoice::SparseTc => KernelChoice::NmV3,
            choice => choice,
        };
        let packing_ratio = match family.nm_version() {
            Some(v) => NmSpmmKernel::new(v, plan.params).measured_packing_ratio(dev, sb)?,
            None => None,
        };
        Ok(Self {
            dev: dev.clone(),
            family,
            params: plan.params,
            estimate: plan.estimates.get(family),
            packing_ratio,
            sb: Arc::clone(sb),
        })
    }
}

impl PreparedState for SimPrepared {
    fn run(&self, a: &MatrixF32) -> Result<ExecRun> {
        let (sb, dev) = (&*self.sb, &self.dev);
        let (m, k) = a.shape();
        if k != sb.k() {
            return Err(NmError::DimensionMismatch {
                expected: format!("A with k = {}", sb.k()),
                found: format!("A with k = {k}"),
            });
        }
        let (n, cfg) = (sb.cols(), sb.cfg());
        let t0 = Instant::now();
        let (stats, report) = match self.family {
            KernelChoice::NmSparse => NmSparseKernel.predict(dev, m, n, k, cfg)?,
            KernelChoice::Sputnik => SputnikKernel.predict(dev, m, sb),
            choice => {
                let version = choice.nm_version().unwrap_or(NmVersion::V3);
                NmSpmmKernel::new(version, self.params).predict(
                    dev,
                    m,
                    n,
                    k,
                    cfg,
                    self.packing_ratio,
                )?
            }
        };
        let c = spmm_reference(a, sb);
        let wall_seconds = t0.elapsed().as_secs_f64();
        Ok(ExecRun {
            c,
            backend: BackendKind::Sim,
            wall_seconds,
            estimate: self.estimate,
            isa: None,
            stats: Some(stats),
            report: Some(report),
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

    #[test]
    fn backend_names_round_trip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()).unwrap(), kind);
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
        let sb =
            Arc::new(NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 13 }).unwrap());
        let expect = spmm_reference(&a, &sb);
        for kind in BackendKind::all() {
            let run = kind
                .prepare(&dev, &plan, &sb, None)
                .unwrap()
                .run(&a)
                .unwrap();
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "{kind}: max diff {}",
                run.c.max_abs_diff(&expect)
            );
            assert!(run.wall_seconds > 0.0, "{kind}: wall clock must tick");
            assert_eq!(run.backend, kind);
            // The simulator and the codegen interpreter both account
            // events and produce a timing-model report; the native CPU
            // kernel does neither.
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
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        for kind in BackendKind::all() {
            let state = kind.prepare(&dev, &plan, &sb, None).unwrap();
            for seed in 0..3u64 {
                let a = MatrixF32::random(64, 128, 30 + seed);
                let run = state.run(&a).unwrap();
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
    fn mismatched_depth_is_a_structured_error() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(64, 128, 128, cfg).unwrap();
        let b = MatrixF32::random(128, 128, 2);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());

        // An `A` whose k does not match the weights is a structured
        // error, never the oracle's assertion.
        let short = MatrixF32::random(64, 96, 3);
        for kind in BackendKind::all() {
            let state = kind.prepare(&dev, &plan, &sb, None).unwrap();
            let err = state.run(&short).unwrap_err();
            assert!(
                matches!(err, NmError::DimensionMismatch { .. }),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn sim_backend_attaches_the_data_free_prediction() {
        use crate::params::BlockingParams;
        use nm_core::inspect::measured_packing_ratio;
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let (m, n, k) = (128, 256, 512);
        let mut plan = Planner::new(dev.clone()).plan(m, n, k, cfg).unwrap();
        plan.params = BlockingParams::large();
        let a = MatrixF32::random(m, k, 9);
        let b = MatrixF32::random(k, n, 10);
        // Strided windows pack to the N/M floor, far from the
        // expected-union model's ratio for random patterns.
        let sb = Arc::new(NmSparseMatrix::prune(&b, cfg, PrunePolicy::Strided).unwrap());
        for choice in [
            KernelChoice::NmV1,
            KernelChoice::NmV2,
            KernelChoice::NmV3,
            KernelChoice::NmSparse,
            KernelChoice::Sputnik,
            KernelChoice::Dense,
        ] {
            plan.choice = choice;
            let state = BackendKind::Sim.prepare(&dev, &plan, &sb, None).unwrap();
            let run = state.run(&a).unwrap();
            assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-6, 0.0));
            let (stats, report) = match choice {
                KernelChoice::NmSparse => NmSparseKernel.predict(&dev, m, n, k, cfg).unwrap(),
                KernelChoice::Sputnik => SputnikKernel.predict(&dev, m, &sb),
                _ => {
                    // Dense falls back to V3 with the plan's blocking.
                    let v = choice.nm_version().unwrap_or(NmVersion::V3);
                    let kern = NmSpmmKernel::new(v, plan.params);
                    let nm = kern.plan(&dev, m, n, k, cfg).unwrap();
                    let (ks, ns) = (nm.blocking.ks, nm.blocking.params.ns);
                    let ratio = nm
                        .packing
                        .then(|| measured_packing_ratio(&sb, ks, ns).unwrap());
                    assert_eq!(ratio.is_some(), v != NmVersion::V1, "{choice}");
                    // The measured ratio, not the expected-union model's,
                    // drives the packing launches.
                    let modeled = kern.predict(&dev, m, n, k, cfg, None).unwrap();
                    let measured = kern.predict(&dev, m, n, k, cfg, ratio).unwrap();
                    assert_eq!(measured == modeled, v == NmVersion::V1, "{choice}");
                    measured
                }
            };
            assert_eq!(run.stats, Some(stats), "{choice}");
            assert_eq!(run.report, Some(report), "{choice}");
        }
    }

    #[test]
    fn pinned_kernel_drives_every_preparation() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(32, 64, 64, cfg).unwrap();
        let b = MatrixF32::random(64, 64, 3);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let a = MatrixF32::random(32, 64, 4);
        for kind in [BackendKind::Cpu(NmVersion::V3), BackendKind::Codegen] {
            let pin = Some(MicroKernel::scalar());
            let state = kind.prepare(&dev, &plan, &sb, pin).unwrap();
            assert_eq!(state.isa(), Some(Isa::Scalar), "{kind}");
            let run = state.run(&a).unwrap();
            assert_eq!(run.isa, Some(Isa::Scalar), "{kind}");
            assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        }
    }

    #[test]
    fn plan_storage_lane_drives_the_staged_format() {
        use crate::plan::ShapeClass;
        use nm_core::sliced::{SlicedLayout, StorageFormat};
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let b = MatrixF32::random(128, 128, 5);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let a = MatrixF32::random(1, 128, 6);
        let expect = spmm_reference(&a, &sb);
        let cpu = BackendKind::Cpu(NmVersion::V3);

        // A sliced-pinned plan stages SELL-C-σ.
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let pinned = Planner::new(dev.clone())
            .plan_stored(ShapeClass::Decode(1), pin, 1, 128, 128, cfg)
            .unwrap();
        let state = cpu.prepare(&dev, &pinned, &sb, None).unwrap();
        assert_eq!(state.storage(), Some(pin));
        let run = state.run(&a).unwrap();
        assert!(run.c.allclose(&expect, 1e-3, 1e-4));

        // Measured evidence carries the format too.
        let auto = Planner::new(dev.clone())
            .plan_as(ShapeClass::Decode(1), 1, 128, 128, cfg)
            .unwrap();
        let spec = crate::measure::MeasureSpec {
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
        let state = cpu.prepare(&dev, &measured, &sb, None).unwrap();
        assert_eq!(
            state.storage(),
            Some(pin),
            "measured storage wins on the auto lane"
        );
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
        let b = MatrixF32::random(96, 96, 2);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let cpu = BackendKind::Cpu(NmVersion::V3);
        let err = cpu.prepare(&dev, &plan, &sb, None).err().unwrap();
        assert!(matches!(err, NmError::InvalidBlocking { .. }), "{err}");
    }
}
