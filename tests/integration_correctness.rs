//! Cross-crate correctness: the reference Eq. (1) and the native CPU
//! kernel (direct and packed classes, on all workers and pinned to one)
//! must agree on the same problems, including ragged shapes, every paper sparsity level, and
//! every pruning policy; the simulated kernels' predictions must cover
//! those problems on every paper device.

mod common;

use common::one_worker;
use nm_spmm::core::prune::PrunePolicy;
use nm_spmm::core::spmm::{gemm_reference, spmm_reference};
use nm_spmm::kernels::cpu::{spmm_cpu_prepared, CpuPrepared, CpuTiling};
use nm_spmm::kernels::{KernelChoice, NmSpmmKernel, NmVersion, SessionBuilder};
use nm_spmm::prelude::*;

struct Problem {
    a: MatrixF32,
    b: MatrixF32,
    sb: NmSparseMatrix,
    oracle: MatrixF32,
}

fn problem(m: usize, n: usize, k: usize, cfg: NmConfig, policy: PrunePolicy, seed: u64) -> Problem {
    let a = MatrixF32::random(m, k, seed);
    let b = MatrixF32::random(k, n, seed + 1000);
    let sb = NmSparseMatrix::prune(&b, cfg, policy).expect("prune");
    let oracle = spmm_reference(&a, &sb);
    Problem { a, b, sb, oracle }
}

/// The native CPU kernel, tiled by the `Para_Init_Table` preset, checked
/// bit for bit against the same preparation pinned to one worker.
fn cpu(a: &MatrixF32, sb: &NmSparseMatrix) -> MatrixF32 {
    let tiling = CpuTiling::auto(sb.cfg(), a.rows(), sb.cols(), sb.k()).expect("tiling");
    let prep = CpuPrepared::new(sb, tiling).expect("staging");
    let got = spmm_cpu_prepared(a, &prep).expect("cpu kernel");
    let serial = one_worker(|| spmm_cpu_prepared(a, &prep)).expect("cpu kernel");
    assert_eq!(
        got.as_slice(),
        serial.as_slice(),
        "{}: one worker",
        sb.cfg()
    );
    got
}

fn assert_close(got: &MatrixF32, want: &MatrixF32, who: &str) {
    assert!(
        got.allclose(want, 1e-3, 1e-4),
        "{who}: max abs diff {}",
        got.max_abs_diff(want)
    );
}

#[test]
fn every_engine_agrees_on_every_paper_level() {
    for cfg in NmConfig::paper_levels(32) {
        let p = problem(96, 128, 256, cfg, PrunePolicy::Magnitude, 42);
        // The packed class engages at high sparsity only.
        assert_close(&cpu(&p.a, &p.sb), &p.oracle, &format!("cpu@{cfg}"));
    }
}

#[test]
fn every_engine_agrees_on_ragged_shapes() {
    let cfg = NmConfig::new(4, 16, 8).expect("config");
    for (m, n, k, seed) in [
        (33usize, 41usize, 57usize, 1u64),
        (130, 70, 250, 2),
        (65, 257, 129, 3),
    ] {
        let p = problem(m, n, k, cfg, PrunePolicy::Random { seed }, seed);
        assert_close(&cpu(&p.a, &p.sb), &p.oracle, "cpu ragged");
    }
}

#[test]
fn all_pruning_policies_flow_through_the_stack() {
    let cfg = NmConfig::new(2, 16, 32).expect("config");
    for policy in [
        PrunePolicy::Magnitude,
        PrunePolicy::Random { seed: 5 },
        PrunePolicy::Strided,
        PrunePolicy::FirstN,
    ] {
        let p = problem(64, 96, 192, cfg, policy, 7);
        // Strided/FirstN produce identical window patterns — the packing
        // path's best case — and must still be numerically exact.
        assert_close(&cpu(&p.a, &p.sb), &p.oracle, &format!("{policy:?}"));
    }
}

#[test]
fn dense_control_equals_dense_gemm_everywhere() {
    let cfg = NmConfig::new(32, 32, 32).expect("dense control");
    let p = problem(64, 64, 128, cfg, PrunePolicy::Magnitude, 9);
    let dense_oracle = gemm_reference(&p.a, &p.b);
    assert_close(&p.oracle, &dense_oracle, "eq1 at 0% sparsity");
    assert_close(
        &cpu(&p.a, &p.sb),
        &dense_oracle,
        "cpu kernel at 0% sparsity",
    );
}

#[test]
fn kernels_work_on_all_three_devices() {
    let cfg = NmConfig::new(4, 16, 32).expect("config");
    for dev in nm_spmm::sim::device::paper_devices() {
        let (stats, report) = NmSpmmKernel::auto(NmVersion::V3, 64, 128)
            .predict(&dev, 64, 128, 256, cfg, None)
            .unwrap_or_else(|e| panic!("{}: {e}", dev.name));
        assert!(stats.ffma >= 64 * 128 * 64, "{}", dev.name);
        assert!(report.seconds > 0.0);
        assert!(report.efficiency > 0.0 && report.efficiency <= 1.0);
    }
}

#[test]
fn functional_stats_match_analytic_profile() {
    // The plan's predicted stats and the kernel's plan are built from
    // the same per-iteration quantities: cross-check the invariant end to
    // end.
    let cfg = NmConfig::new(2, 16, 32).expect("config");
    let p = problem(128, 128, 512, cfg, PrunePolicy::Random { seed: 13 }, 13);
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let mut plan = session.plan(128, 128, 512, cfg).expect("plan");
    plan.choice = KernelChoice::NmV3;
    let kern = NmSpmmKernel::new(NmVersion::V3, plan.params);
    let (stats, _) = (plan.predict(session.device(), 128, &p.sb)).expect("prediction");
    // FFMA count is geometry-exact: blocks * iters * ms*ns*ws.
    let plan = kern
        .plan(session.device(), 128, 128, 512, cfg)
        .expect("plan");
    let (gy, gx) = plan.grid;
    let expect_ffma = (gy * gx * plan.iters) as u64
        * (plan.blocking.params.ms * plan.blocking.params.ns * plan.blocking.ws) as u64;
    assert_eq!(stats.ffma, expect_ffma);
    assert_eq!(stats.blocks, (gy * gx) as u64);
    assert_eq!(stats.main_loop_iters, (gy * gx * plan.iters) as u64);
}
