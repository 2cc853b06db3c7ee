//! The `codegen` execution backend: plans lowered to WGSL through
//! `nm-gpu`, executed by its deterministic shader interpreter.
//!
//! Where the simulator models a launch and the CPU kernel runs natively,
//! this backend *generates the GPU kernel* — a complete WGSL compute
//! shader lowered from the plan's blocking, the N:M config and the
//! staged storage format — validates it, and executes its tile walk on
//! the host, workgroup by workgroup. [`CodegenPrepared::new`] (what
//! [`BackendKind::Codegen`]'s [`prepare`](BackendKind::prepare) builds)
//! is the offline step; its [`PreparedState::run`] is the online one.
//!
//! ## The twin preparation
//!
//! A [`CodegenPrepared`] wraps an ordinary [`CpuPrepared`] twin and
//! derives every shader binding from the *same clamped geometry and the
//! same fast/general classification* the CPU kernel uses:
//!
//! * the gather table is the twin's staged one: pre-resolved absolute
//!   dense-k indices (`u/N·M + D[u][jw]`), one `w`-long run per permuted
//!   window position, bound as is;
//! * column groups mirror the staging's grid-x decomposition: one group
//!   per SELL-C-σ slice (a row-major column block is a `σ = 1` slice),
//!   spans in permuted order with original-column write-back;
//! * the per-`(span, k-block)` fast flags are the twin's op-flavor map,
//!   reused verbatim, so the interpreter chooses FMA vs zero-skipping
//!   mul-add exactly where the CPU kernel does;
//! * `B′` is bound to the values of the compressed matrix the preparation
//!   holds (an `Arc` clone of the one it was prepared from, never a copy),
//!   so the state adds no second copy of `B′` to the twin's staging.
//!
//! That is what makes the parity guarantee *trace-level*: the
//! interpreter's output is bit-identical to `cpu_v3`, and its phase
//! structure (workgroups folded into waves by the simulator's own
//! occupancy model) matches the [`gpu_sim::ExecutionTrace`] of the
//! equivalent simulated launch.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::sliced::StorageFormat;
use nm_core::sparse::NmSparseMatrix;
use std::sync::Arc;

use crate::backend::{BackendKind, ExecRun, PreparedState};
use crate::cpu::{uses_packing, CpuPrepared};
use crate::nm::NmVersion;
use crate::plan::{EstimateSummary, KernelChoice, Plan};
use crate::simd::{Isa, MicroKernel};
use gpu_sim::device::DeviceConfig;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::timing::{estimate, KernelProfile, PipelineMode};
use gpu_sim::{ExecutionTrace, KernelStats, LaunchReport, PhaseCounts};
use nm_gpu::{
    emit_wgsl, interpret, lower, validate_wgsl, ColumnGroup, InterpTrace, KernelBindings,
    KernelFamily, KernelIr, KernelSpec, ValidateOptions, WindowSpan,
};
use std::time::Instant;

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

/// The offline product of the codegen backend: the CPU twin preparation,
/// the lowered IR, the emitted-and-validated WGSL, and the interpreter's
/// column groups — everything derived from the weights alone — plus a
/// row-major copy of `B′` for the shader's `B′` binding, and the device
/// and plan estimate a run's report reads.
///
/// The copy keeps the shader's `B′` indexing (`u · n + col`) and its text
/// unchanged; the codegen backend verifies the CPU kernel, so it may pay
/// for one.
pub struct CodegenPrepared {
    b: Vec<f32>,
    twin: CpuPrepared,
    ir: KernelIr,
    wgsl: String,
    groups: Vec<ColumnGroup>,
    dev: DeviceConfig,
    estimate: Option<EstimateSummary>,
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
    pub fn new(
        dev: &DeviceConfig,
        plan: &Plan,
        sb: &Arc<NmSparseMatrix>,
        kernel: Option<MicroKernel>,
    ) -> Result<Self> {
        let twin = CpuPrepared::for_plan(plan, sb, kernel)?;
        let cfg = sb.cfg();
        let (w, n, k) = (sb.w(), sb.cols(), sb.k());
        let tiling = twin.tiling();
        let family = family_for_plan(plan);

        // The shader packs `A` where the paper does: a row-major twin at
        // high sparsity (a sliced twin gathers absolute indices).
        let packed = twin.format() == StorageFormat::RowMajor && uses_packing(cfg);

        // One column group per staged slice: spans in permuted order with
        // original-column write-back. The twin's gather table and op-flavor
        // map are already keyed by permuted position — exactly this span
        // order.
        let (sm, _, staged_kblocks) = twin.staged();
        let mut groups = Vec::with_capacity(sm.slices());
        for s in 0..sm.slices() {
            let mut spans = Vec::new();
            let mut col_off = 0u32;
            for pos in sm.slice_windows(s) {
                let (col, lw) = sm.span(pos);
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
            storage: twin.format(),
            cfg,
            n,
            k,
            w,
            // The plan's panel, not the twin's host-L2-sized one.
            mb: twin.min_panel(),
            nb: tiling.nb,
            kb: tiling.kb,
            groups: groups.len(),
            packed,
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
        let estimate_family = match family {
            KernelFamily::V1 => KernelChoice::NmV1,
            KernelFamily::V2 => KernelChoice::NmV2,
            KernelFamily::V3 | KernelFamily::SkinnyDecode => KernelChoice::NmV3,
        };
        Ok(Self {
            b: sb.values_row_major().into_vec(),
            twin,
            ir,
            wgsl,
            groups,
            dev: dev.clone(),
            estimate: plan.estimates.get(estimate_family),
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

    /// Event counts attributed from what the interpreter observed.
    fn stats(&self, trace: &InterpTrace) -> KernelStats {
        let shared_floats = self.ir.shared_floats as u64;
        KernelStats {
            ffma: trace.flops as u64 / 2,
            ldg_bytes_a: trace.gather_loads as u64 * 4,
            ldg_bytes_b: trace.gather_loads as u64 * 4,
            ldg_bytes_d: self.twin.staged().0.gather().len() as u64 * 4,
            ldg_bytes_colinfo: 0,
            stg_bytes: trace.writebacks as u64 * 4,
            ldg_sectors: (trace.gather_loads as u64 * 4).div_ceil(32),
            lds_requests: trace.flops as u64 / 2 / 32,
            lds_replays: 0,
            sts_requests: trace.shared_stages as u64,
            lds_bytes: trace.flops as u64 / 2 * 4,
            sts_bytes: trace.shared_stages as u64 * shared_floats * 4,
            barriers: (trace.shared_stages + trace.epilogues) as u64,
            blocks: trace.workgroups as u64,
            main_loop_iters: (trace.workgroups * trace.main_iters_per_workgroup) as u64,
        }
    }
}

impl PreparedState for CodegenPrepared {
    /// The online step: interpret the generated kernel, then attach the
    /// simulated report and event counts for the same launch — this
    /// backend reports both real numerics *and* the model's opinion of
    /// the kernel it generated.
    fn run(&self, a: &MatrixF32) -> Result<ExecRun> {
        let t0 = Instant::now();
        let (c, trace) = self.execute(a)?;
        let wall_seconds = t0.elapsed().as_secs_f64();
        let (report, _) = self.simulate(&self.dev, a.rows().max(1))?;
        Ok(ExecRun {
            c,
            backend: BackendKind::Codegen,
            wall_seconds,
            estimate: self.estimate,
            isa: Some(self.twin.isa()),
            stats: Some(self.stats(&trace)),
            report: Some(report),
        })
    }

    fn isa(&self) -> Option<Isa> {
        Some(self.twin.isa())
    }

    fn storage(&self) -> Option<StorageFormat> {
        Some(self.twin.format())
    }

    fn staging(&self) -> Option<&nm_core::sliced::SlicedMatrix> {
        Some(self.twin.staged().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Planner, ShapeClass};
    use gpu_sim::device::a100_80g;
    use nm_core::pattern::NmConfig;
    use nm_core::sliced::{SlicedLayout, StorageFormat};
    use nm_core::spmm::spmm_reference;

    const CPU: BackendKind = BackendKind::Cpu(NmVersion::V3);

    fn operand(cfg: NmConfig, k: usize, n: usize, seed: u64) -> Arc<NmSparseMatrix> {
        let b = MatrixF32::random(k, n, seed);
        Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap())
    }

    fn run(kind: BackendKind, plan: &Plan, sb: &Arc<NmSparseMatrix>, a: &MatrixF32) -> ExecRun {
        let state = kind.prepare(&a100_80g(), plan, sb, None).unwrap();
        state.run(a).unwrap()
    }

    #[test]
    fn codegen_backend_is_bit_identical_to_cpu_v3() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(33, 144, 200, cfg).unwrap();
        let sb = operand(cfg, 200, 144, 7);
        let a = MatrixF32::random(33, 200, 8);

        let cpu = run(CPU, &plan, &sb, &a);
        let gen = run(BackendKind::Codegen, &plan, &sb, &a);
        assert_eq!(
            cpu.c.as_slice(),
            gen.c.as_slice(),
            "interpreter must reproduce cpu_v3 bit for bit"
        );
        assert!(gen.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
        assert!(gen.stats.is_some() && gen.report.is_some());
        assert_eq!(gen.backend, BackendKind::Codegen);
    }

    #[test]
    fn sliced_pin_generates_a_sliced_kernel_with_identical_numerics() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let plan = Planner::new(dev.clone())
            .plan_stored(ShapeClass::Prefill, pin, 13, 112, 72, cfg)
            .unwrap();
        let sb = operand(cfg, 72, 112, 9);
        let a = MatrixF32::random(13, 72, 10);

        let prep = CodegenPrepared::new(&dev, &plan, &sb, None).unwrap();
        assert_eq!(prep.spec().storage, pin);
        assert!(prep.wgsl().contains("sliced"));
        let gen = prep.run(&a).unwrap();
        let cpu = run(CPU, &plan, &sb, &a);
        assert_eq!(cpu.c.as_slice(), gen.c.as_slice());
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
        let gen = run(BackendKind::Codegen, &plan, &sb, &a);
        let cpu = run(CPU, &plan, &sb, &a);
        assert_eq!(cpu.c.as_slice(), gen.c.as_slice());
    }

    #[test]
    fn phase_structure_matches_the_simulated_trace() {
        let dev = a100_80g();
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(dev.clone()).plan(96, 256, 192, cfg).unwrap();
        let sb = operand(cfg, 192, 256, 13);
        let a = MatrixF32::random(96, 192, 14);
        let prep = CodegenPrepared::new(&dev, &plan, &sb, None).unwrap();
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
        let sliced = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        for storage in [StorageFormat::RowMajor, sliced] {
            let plan = Planner::new(dev.clone())
                .plan_stored(ShapeClass::Prefill, storage, m, n, k, cfg)
                .unwrap();
            for kind in [CPU, BackendKind::Codegen] {
                let sb = operand(cfg, k, n, 18);
                let state = kind.prepare(&dev, &plan, &sb, None).unwrap();
                assert_eq!(state.storage(), Some(storage));
                // Neither state holds the matrix: a staging shares only its
                // value panels, and codegen binds a row-major copy as `B′`.
                assert_eq!(Arc::strong_count(&sb), 1, "{kind}");
                drop(sb);
                let got = state.run(&a).unwrap();
                let fresh = operand(cfg, k, n, 18);
                let want = run(kind, &plan, &fresh, &a);
                assert_eq!(got.c.as_slice(), want.c.as_slice(), "{kind} {storage}");
                assert!(got.c.allclose(&spmm_reference(&a, &fresh), 1e-3, 1e-4));
            }
        }
    }
}
