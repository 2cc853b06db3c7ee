//! The one executing kernel, and the record of a run.
//!
//! A [`Plan`](crate::plan::Plan) records *what* to run — kernel family and
//! auto-tuned blocking. Every layer runs on one kernel, the native CPU
//! kernel of [`crate::cpu`]:
//! [`CpuPrepared::for_plan`](crate::cpu::CpuPrepared::for_plan) stages
//! everything derivable from the weights under the plan — the **offline**
//! step, done once — and
//! [`CpuPrepared::run`](crate::cpu::CpuPrepared::run) is the **online**
//! kernel, which may be called any number of times without repeating the
//! staging. The handle-based [`Session`](crate::session) API owns this
//! amortization for library users.
//!
//! Two things sit beside the kernel rather than inside it, as in the
//! paper, whose top-down model predicts the one implementation that runs:
//!
//! * the simulator's prediction for a plan,
//!   [`Plan::predict`](crate::plan::Plan::predict), computed on demand;
//! * the WGSL proof, [`CodegenPrepared`](crate::codegen::CodegenPrepared),
//!   a verifier that interprets the generated shader over a twin staging
//!   and checks it bit for bit against this kernel.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;

use crate::nm::NmVersion;
use crate::simd::Isa;

/// Which kernel a session runs its layers on: the native CPU kernel, the
/// only one. [`NmVersion::V3`] names it; the paper's V1/V2 steps exist in
/// the simulator and the WGSL families, not on the CPU, and
/// [`SessionBuilder::build`](crate::session::SessionBuilder::build)
/// rejects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The native CPU kernel.
    Cpu(NmVersion),
}

impl BackendKind {
    /// Stable identifier: `cpu_v3`; a rejected payload keeps its step's
    /// name (`cpu_v1`, `cpu_v2`) for the error.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Cpu(NmVersion::V1) => "cpu_v1",
            BackendKind::Cpu(NmVersion::V2) => "cpu_v2",
            BackendKind::Cpu(NmVersion::V3) => "cpu_v3",
        }
    }

    /// `self`, or [`NmError::Unsupported`] for `Cpu(V1)` and `Cpu(V2)`: the
    /// CPU runs one kernel, and a ladder step it does not have is never
    /// aliased.
    pub(crate) fn supported(self) -> Result<Self> {
        match self {
            BackendKind::Cpu(NmVersion::V3) => Ok(self),
            _ => Err(NmError::Unsupported {
                reason: format!(
                    "backend `{}`: the native CPU runs one kernel, `cpu_v3`; the \
                     paper's V1/V2 steps live in the simulator and the WGSL families",
                    self.name()
                ),
            }),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Cpu(NmVersion::V1) => "native CPU V1 (unsupported)",
            BackendKind::Cpu(NmVersion::V2) => "native CPU V2 (unsupported)",
            BackendKind::Cpu(NmVersion::V3) => "native CPU",
        })
    }
}

/// The result of one online kernel call.
#[derive(Debug, Clone)]
pub struct ExecRun {
    /// The computed matrix `C[m][n]`.
    pub c: MatrixF32,
    /// Measured wall-clock seconds of the **online** execution only.
    ///
    /// The clock starts *after* the offline preparation (`B′` staging,
    /// ISA dispatch), so repeated calls against one
    /// [`PreparedLayer`](crate::session::PreparedLayer) measure exactly
    /// the amortized per-call cost the paper's accounting describes. The
    /// kernel's zero-padded copy of `A` (only when `k` is not a multiple
    /// of `M`) *is* included: it depends on the activations and is
    /// genuinely online work.
    pub wall_seconds: f64,
    /// The instruction set the micro-kernel executed with (runtime
    /// dispatch, see [`crate::simd::MicroKernel`]).
    pub isa: Isa,
}

impl ExecRun {
    /// Measured useful throughput in GFLOP/s, given the problem's useful
    /// flop count (`2·m·n·w`).
    pub fn gflops(&self, useful_flops: f64) -> f64 {
        useful_flops / self.wall_seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CodegenPrepared;
    use crate::cpu::CpuPrepared;
    use crate::plan::Planner;
    use crate::simd::MicroKernel;
    use gpu_sim::device::a100_80g;
    use nm_core::pattern::NmConfig;
    use nm_core::prune::PrunePolicy;
    use nm_core::sparse::NmSparseMatrix;
    use nm_core::spmm::spmm_reference;
    use std::sync::Arc;

    #[test]
    fn every_backend_matches_the_reference() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(96, 256, 192, cfg).unwrap();
        let a = MatrixF32::random(96, 192, 11);
        let b = MatrixF32::random(192, 256, 12);
        let sb =
            Arc::new(NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 13 }).unwrap());
        let expect = spmm_reference(&a, &sb);
        let run = CpuPrepared::for_plan(&plan, &sb, None)
            .unwrap()
            .run(&a)
            .unwrap();
        assert!(
            run.c.allclose(&expect, 1e-3, 1e-4),
            "max diff {}",
            run.c.max_abs_diff(&expect)
        );
        assert!(run.wall_seconds > 0.0, "wall clock must tick");
        // Dispatch can never name an ISA the host cannot execute.
        assert!(run.isa.supported(), "selected ISA must run here");
        assert!(run.gflops(2.0 * 96.0 * 256.0 * 48.0) > 0.0);
        // The WGSL verifier computes the same product.
        let (c, _) = CodegenPrepared::new(&plan, &sb, None)
            .unwrap()
            .execute(&a)
            .unwrap();
        assert_eq!(c.as_slice(), run.c.as_slice());
    }

    #[test]
    fn prepared_state_is_reusable_across_runs() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(64, 128, 128, cfg).unwrap();
        let b = MatrixF32::random(128, 128, 21);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let state = CpuPrepared::for_plan(&plan, &sb, None).unwrap();
        for seed in 0..3u64 {
            let a = MatrixF32::random(64, 128, 30 + seed);
            let run = state.run(&a).unwrap();
            let expect = spmm_reference(&a, &sb);
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "seed {seed}: max diff {}",
                run.c.max_abs_diff(&expect)
            );
            assert_eq!(run.isa, state.isa());
        }
    }

    #[test]
    fn mismatched_depth_is_a_structured_error() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(64, 128, 128, cfg).unwrap();
        let b = MatrixF32::random(128, 128, 2);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());

        // An `A` whose k does not match the weights is a structured
        // error, on the kernel and on its WGSL verifier.
        let short = MatrixF32::random(64, 96, 3);
        let cpu = CpuPrepared::for_plan(&plan, &sb, None).unwrap();
        let codegen = CodegenPrepared::new(&plan, &sb, None).unwrap();
        for err in [
            cpu.run(&short).unwrap_err(),
            codegen.execute(&short).unwrap_err(),
        ] {
            assert!(matches!(err, NmError::DimensionMismatch { .. }), "{err}");
        }
    }

    #[test]
    fn pinned_kernel_drives_every_preparation() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(32, 64, 64, cfg).unwrap();
        let b = MatrixF32::random(64, 64, 3);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let a = MatrixF32::random(32, 64, 4);
        let pin = Some(MicroKernel::scalar());
        let cpu = CpuPrepared::for_plan(&plan, &sb, pin).unwrap();
        let codegen = CodegenPrepared::new(&plan, &sb, pin).unwrap();
        assert_eq!((cpu.isa(), codegen.isa()), (Isa::Scalar, Isa::Scalar));
        let run = cpu.run(&a).unwrap();
        assert_eq!(run.isa, Isa::Scalar);
        assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        assert_eq!(codegen.execute(&a).unwrap().0.as_slice(), run.c.as_slice());
    }

    #[test]
    fn cpu_backend_rejects_unalignable_blocking_with_structured_error() {
        // L = 48 divides no autotune candidate, so the plan falls back to
        // the Para_Init_Table preset whose ns is not a multiple of L; the
        // CPU kernel must refuse with InvalidBlocking, not panic.
        let cfg = NmConfig::new(2, 16, 48).unwrap();
        let plan = Planner::new(a100_80g()).plan(64, 96, 96, cfg).unwrap();
        assert!(!plan.params.ns.is_multiple_of(48), "setup: preset expected");
        let b = MatrixF32::random(96, 96, 2);
        let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let err = CpuPrepared::for_plan(&plan, &sb, None).err().unwrap();
        assert!(matches!(err, NmError::InvalidBlocking { .. }), "{err}");
    }
}
