//! The WGSL proof: plans lowered to WGSL through `nm-gpu`, executed by its
//! deterministic shader interpreter.
//!
//! Where the simulator models a launch and the CPU kernel runs natively,
//! this module *generates the GPU kernel* — a complete WGSL compute
//! shader lowered from the plan's blocking and the N:M config —
//! validates it, and executes its tile walk on
//! the host, workgroup by workgroup. It runs no layer in production: a
//! [`CodegenPrepared`] is the verifier that proves the shader means what
//! the CPU kernel computes ([`CodegenPrepared::execute`]) and that its
//! phases match the simulated launch ([`CodegenPrepared::phase_parity`]).
//!
//! ## The twin preparation
//!
//! A [`CodegenPrepared`] wraps an ordinary [`CpuPrepared`] twin and
//! derives every shader binding from the *same clamped geometry and the
//! same fast/general classification* the CPU kernel uses:
//!
//! * the gather table is the twin's staged one: pre-resolved absolute
//!   dense-k indices (`u/N·M + D[u][j]`), one `w`-long run per window,
//!   bound as is;
//! * column groups mirror the staging's grid-x decomposition: one group
//!   per `nb`-wide column block, its windows' spans in order;
//! * the per-`(span, k-block)` fast flags are the twin's op-flavor map,
//!   reused verbatim, so the interpreter chooses FMA vs zero-skipping
//!   mul-add exactly where the CPU kernel does;
//! * `B′` is bound to a row-major `w × n` copy the preparation makes
//!   ([`NmSparseMatrix::values_row_major`]), the layout the interpreter
//!   indexes; the twin's staging borrows the weights' window-major panels,
//!   so a verifier holds `B′` twice. It runs no production layer, so the
//!   copy costs only the checks that build one.
//!
//! That is what makes the parity guarantee *trace-level*: the
//! interpreter's output is bit-identical to `cpu_v3`, and its phase
//! structure (workgroups folded into waves by the simulator's own
//! occupancy model) matches the [`gpu_sim::ExecutionTrace`] of the
//! equivalent simulated launch.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::sparse::NmSparseMatrix;
use std::sync::Arc;

use crate::cpu::{uses_packing, CpuPrepared};
use crate::nm::NmVersion;
use crate::plan::Plan;
use crate::simd::{Isa, MicroKernel};
use gpu_sim::device::DeviceConfig;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::timing::{estimate, KernelProfile, PipelineMode};
use gpu_sim::{ExecutionTrace, LaunchReport, PhaseCounts};
use nm_gpu::{
    emit_wgsl, interpret, lower, validate_wgsl, ColumnGroup, InterpTrace, KernelBindings,
    KernelFamily, KernelIr, KernelSpec, ValidateOptions, WindowSpan,
};

/// Registers the timing model charges each generated-kernel thread —
/// the register budget of the paper's hand-written kernels; the emitted
/// WGSL has the same live-value footprint (accumulator lane + staged
/// operands).
const REGS_PER_THREAD: usize = 64;

/// The kernel family a plan lowers to: the plan's ladder choice, except
/// that decode-class shapes take the skinny-row family (the 1-row rung
/// of the ladder, single-row register tiles).
pub fn family_for_plan(plan: &Plan) -> KernelFamily {
    if plan.key.shape.is_decode() {
        KernelFamily::SkinnyDecode
    } else {
        match plan.choice.nm_version().unwrap_or(NmVersion::V3) {
            NmVersion::V1 => KernelFamily::V1,
            NmVersion::V2 => KernelFamily::V2,
            NmVersion::V3 => KernelFamily::V3,
        }
    }
}

/// The codegen verifier's offline product: the CPU twin preparation, the
/// lowered IR, the emitted-and-validated WGSL, and the interpreter's
/// column groups — everything derived from the weights alone — plus a
/// row-major copy of `B′` for the shader's `B′` binding.
///
/// The copy keeps the shader's `B′` indexing (`u · n + col`) and its text
/// unchanged; the verifier checks the CPU kernel, so it may pay for one.
pub struct CodegenPrepared {
    b: Vec<f32>,
    twin: CpuPrepared,
    ir: KernelIr,
    wgsl: String,
    groups: Vec<ColumnGroup>,
}

impl CodegenPrepared {
    /// The offline step: stage the twin preparation exactly as the CPU
    /// backend would (measured evidence wins, cost-model derivation
    /// otherwise), then lower, emit and validate the WGSL kernel for
    /// `(plan, sb)`. `kernel` pins the twin's micro-kernel — the ALU-mode
    /// pin: scalar → twice-rounded mul/add, vector → FMA; `None` runs
    /// [`MicroKernel::select`].
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] when the plan's blocking cannot drive
    /// the twin's tiles, and [`NmError::InvalidConfig`] when the emitted
    /// shader fails validation.
    pub fn new(plan: &Plan, sb: &Arc<NmSparseMatrix>, kernel: Option<MicroKernel>) -> Result<Self> {
        let twin = CpuPrepared::for_plan(plan, sb, kernel)?;
        let cfg = sb.cfg();
        let (w, n, k) = (sb.w(), sb.cols(), sb.k());
        let tiling = twin.tiling();
        let family = family_for_plan(plan);

        // One column group per staged column block, its windows' spans in
        // order. The twin's gather table and op-flavor map are keyed by
        // window — exactly this span order.
        let (sm, _, staged_kblocks) = twin.staged();
        let mut groups = Vec::with_capacity(sm.blocks());
        for b in 0..sm.blocks() {
            let mut spans = Vec::new();
            let mut col_off = 0u32;
            for j in sm.block(b) {
                let (col, lw) = sm.span(j);
                spans.push(WindowSpan {
                    col: col as u32,
                    width: lw as u32,
                    strip_off: col_off,
                });
                col_off += lw as u32;
            }
            groups.push(ColumnGroup { spans });
        }

        let spec = KernelSpec {
            family,
            cfg,
            n,
            k,
            w,
            // The plan's panel, not the twin's host-L2-sized one.
            mb: twin.min_panel(),
            nb: tiling.nb,
            kb: tiling.kb,
            groups: groups.len(),
            // The shader packs `A` where the paper does: at high sparsity.
            packed: uses_packing(cfg),
            fma: twin.isa() != Isa::Scalar,
        };
        let ir = lower(&spec)?;
        debug_assert_eq!(
            ir.spec.kblocks(),
            staged_kblocks,
            "IR k-block count must equal the staged geometry's"
        );
        let wgsl = emit_wgsl(&ir);
        // The emission gate: a malformed shader is a structured error at
        // preparation time, never something a runtime would discover.
        validate_wgsl(&wgsl, &ValidateOptions::default()).map_err(|e| NmError::InvalidConfig {
            reason: format!("generated WGSL failed validation: {e}"),
        })?;
        Ok(Self {
            b: sb.values_row_major().into_vec(),
            twin,
            ir,
            wgsl,
            groups,
        })
    }

    /// The lowered kernel IR.
    pub fn ir(&self) -> &KernelIr {
        &self.ir
    }

    /// The generated (and validated) WGSL source.
    pub fn wgsl(&self) -> &str {
        &self.wgsl
    }

    /// The kernel spec this preparation lowered.
    pub fn spec(&self) -> &KernelSpec {
        &self.ir.spec
    }

    /// The interpreter's view of the binding tables, with `B′` bound to
    /// the row-major copy and the gather indices and fast flags to the
    /// twin's staging.
    pub fn bindings(&self) -> KernelBindings<'_> {
        let (sm, fast, _) = self.twin.staged();
        KernelBindings {
            b: &self.b,
            gather: sm.gather(),
            groups: &self.groups,
            fast,
            q: sm.windows(),
        }
    }

    /// The micro-kernel ISA the twin preparation dispatched to.
    pub fn isa(&self) -> Isa {
        self.twin.isa()
    }

    /// Execute the generated kernel over `a` through the shader
    /// interpreter.
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] when `a`'s depth is not the prepared
    /// weights' `k`.
    pub fn execute(&self, a: &MatrixF32) -> Result<(MatrixF32, InterpTrace)> {
        let (m, k) = a.shape();
        if k != self.ir.spec.k {
            return Err(NmError::DimensionMismatch {
                expected: format!("A with k = {}", self.ir.spec.k),
                found: format!("A is {m} x {k}"),
            });
        }
        let (c, trace) = interpret(&self.ir, &self.bindings(), a.as_slice(), m)?;
        Ok((MatrixF32::from_vec(m, self.ir.spec.n, c), trace))
    }

    /// The block-resource shape of the generated kernel — what the
    /// occupancy model folds workgroups into waves with.
    pub fn resources(&self) -> BlockResources {
        BlockResources {
            threads: self.ir.threads() as usize,
            regs_per_thread: REGS_PER_THREAD,
            smem_bytes: self.ir.shared_bytes(),
        }
    }

    /// The timing-model profile of one launch over `m` activation rows.
    pub fn profile(&self, m: usize) -> KernelProfile {
        let spec = &self.ir.spec;
        let row_tiles = m.div_ceil(spec.mb).max(1);
        let threads = self.ir.threads().max(1) as f64;
        let ub = spec.ub();
        // A workgroup never holds more than `m` rows, so sizing its
        // per-block products from the clamped rows bounds them even for a
        // doctored measured `mb`.
        let mb = spec.mb.min(m.max(1));
        // One FMA per thread-cycle; shared traffic at the micro-tile's
        // reuse ratio. Coarse, but derived from the same geometry the
        // interpreter walks, so grid/iteration structure is exact.
        let macs_per_iter = (mb * spec.nb * ub) as f64;
        KernelProfile {
            name: spec.name(),
            grid: (self.groups.len(), row_tiles),
            resources: self.resources(),
            iters_per_block: spec.kblocks(),
            comp_cycles_per_iter: macs_per_iter / threads,
            lds_cycles_per_iter: macs_per_iter / threads / 4.0,
            g2s_per_iter: gpu_sim::l2::BlockTraffic {
                a_bytes: (mb * spec.kb * 4) as f64,
                bcol_bytes: (ub * spec.nb * 4) as f64,
                private_bytes: 0.0,
            },
            dependent_load_chains: 1.0,
            pipeline: if self.ir.buffers == 2 {
                PipelineMode::DoubleBuffered
            } else {
                PipelineMode::Serial
            },
            inner_double_buffer: self.ir.buffers == 2,
            stg_bytes_per_block: (mb * spec.nb * 4) as f64,
            useful_flops: 2.0 * m as f64 * spec.n as f64 * spec.w as f64,
        }
    }

    /// The simulated launch report + timeline for an `m`-row launch.
    ///
    /// # Errors
    /// Propagates the timing model's structured error for a degenerate
    /// profile.
    pub fn simulate(&self, dev: &DeviceConfig, m: usize) -> Result<(LaunchReport, ExecutionTrace)> {
        let prof = self.profile(m);
        let report = estimate(dev, &prof).map_err(|e| NmError::InvalidConfig {
            reason: format!("timing model rejected the generated kernel's profile: {e}"),
        })?;
        let trace = ExecutionTrace::from_launch(dev, &prof, &report);
        Ok((report, trace))
    }

    /// Trace-level parity check for an `m`-row launch: the interpreter's
    /// phase structure and the simulator's, computed independently —
    /// the interpreter folds the workgroups it actually walked through
    /// the occupancy model; the simulator derives its timeline from the
    /// profile. Equality is the acceptance criterion.
    ///
    /// # Errors
    /// As [`CodegenPrepared::simulate`].
    pub fn phase_parity(
        &self,
        dev: &DeviceConfig,
        trace: &InterpTrace,
        m: usize,
    ) -> Result<(PhaseCounts, PhaseCounts)> {
        let (_, sim_trace) = self.simulate(dev, m)?;
        Ok((
            trace.phase_counts(dev, &self.resources()),
            sim_trace.phase_counts(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Planner, ShapeClass};
    use gpu_sim::device::a100_80g;
    use nm_core::pattern::NmConfig;
    use nm_core::spmm::spmm_reference;

    fn operand(cfg: NmConfig, k: usize, n: usize, seed: u64) -> Arc<NmSparseMatrix> {
        let b = MatrixF32::random(k, n, seed);
        Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap())
    }

    fn cpu(plan: &Plan, sb: &Arc<NmSparseMatrix>, a: &MatrixF32) -> MatrixF32 {
        let state = CpuPrepared::for_plan(plan, sb, None).unwrap();
        state.run(a).unwrap().c
    }

    fn gen(plan: &Plan, sb: &Arc<NmSparseMatrix>, a: &MatrixF32) -> MatrixF32 {
        let prep = CodegenPrepared::new(plan, sb, None).unwrap();
        prep.execute(a).unwrap().0
    }

    #[test]
    fn codegen_backend_is_bit_identical_to_cpu_v3() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(33, 144, 200, cfg).unwrap();
        let sb = operand(cfg, 200, 144, 7);
        let a = MatrixF32::random(33, 200, 8);

        let (cpu, gen) = (cpu(&plan, &sb, &a), gen(&plan, &sb, &a));
        assert_eq!(
            cpu.as_slice(),
            gen.as_slice(),
            "interpreter must reproduce cpu_v3 bit for bit"
        );
        assert!(gen.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
    }

    #[test]
    fn decode_plans_lower_to_the_skinny_family() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone())
            .plan_as(ShapeClass::Decode(1), 1, 128, 128, cfg)
            .unwrap();
        assert_eq!(family_for_plan(&plan), KernelFamily::SkinnyDecode);
        let sb = operand(cfg, 128, 128, 11);
        let a = MatrixF32::random(1, 128, 12);
        assert_eq!(
            cpu(&plan, &sb, &a).as_slice(),
            gen(&plan, &sb, &a).as_slice()
        );
    }

    #[test]
    fn phase_structure_matches_the_simulated_trace() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(96, 256, 192, cfg).unwrap();
        let sb = operand(cfg, 192, 256, 13);
        let a = MatrixF32::random(96, 192, 14);
        let prep = CodegenPrepared::new(&plan, &sb, None).unwrap();
        let (_, trace) = prep.execute(&a).unwrap();
        let (ours, sim) = prep.phase_parity(&dev, &trace, 96).unwrap();
        assert!(ours.matches(&sim), "interpreter {ours} vs simulator {sim}");
    }

    #[test]
    fn a_staging_outlives_its_source() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let (m, n, k) = (8, 96, 80);
        let a = MatrixF32::random(m, k, 19);
        let plan = Planner::new(dev.clone())
            .plan_as(ShapeClass::Prefill, m, n, k, cfg)
            .unwrap();
        let sb = operand(cfg, k, n, 18);
        let staged = CpuPrepared::for_plan(&plan, &sb, None).unwrap();
        let prep = CodegenPrepared::new(&plan, &sb, None).unwrap();
        // Neither holds the matrix: a staging shares only its value
        // panels, and codegen binds a row-major copy as `B′`.
        assert_eq!(Arc::strong_count(&sb), 1);
        drop(sb);
        let fresh = operand(cfg, k, n, 18);
        let want = cpu(&plan, &fresh, &a);
        let got = staged.run(&a).unwrap().c;
        assert_eq!(got.as_slice(), want.as_slice(), "cpu");
        let got = prep.execute(&a).unwrap().0;
        assert_eq!(got.as_slice(), want.as_slice(), "codegen");
        assert!(want.allclose(&spmm_reference(&a, &fresh), 1e-3, 1e-4));
    }
}
