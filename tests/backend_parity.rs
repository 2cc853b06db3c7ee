//! Backend parity: the native CPU kernel (on all workers, and bit for bit
//! pinned to one), the scalar reference and the f64 oracle must agree on
//! the same compressed operands — across ragged shapes, all four paper
//! sparsity levels, and on both sides of (and exactly at) the 70% packing
//! threshold.

mod common;

use common::one_worker;
use nm_spmm::core::spmm::{gemm_reference_f64, spmm_reference};
use nm_spmm::kernels::cpu::{spmm_cpu_prepared, uses_packing, CpuPrepared, CpuTiling};
use nm_spmm::kernels::plan::Planner;
use nm_spmm::kernels::{BackendKind, NmVersion};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use proptest::prelude::*;

/// Assert the kernel on all workers == pinned to one == reference against
/// the f64 oracle.
fn assert_parity(m: usize, k: usize, n: usize, cfg: NmConfig, seed: u64) {
    let a = MatrixF32::random(m, k, seed);
    let b = MatrixF32::random(k, n, seed ^ 0xabcd);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
    let oracle = gemm_reference_f64(&a, &sb.decompress());
    let reference = spmm_reference(&a, &sb);
    assert!(
        reference.allclose(&oracle, 1e-3, 1e-4),
        "{cfg}: reference vs f64 oracle diff {}",
        reference.max_abs_diff(&oracle)
    );
    let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
    let prep = CpuPrepared::new(&sb, tiling).unwrap();
    let got = spmm_cpu_prepared(&a, &prep).unwrap();
    let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
    assert_eq!(
        got.as_slice(),
        serial.as_slice(),
        "{cfg} ({m}x{n}x{k}): one worker"
    );
    assert!(
        got.allclose(&oracle, 1e-3, 1e-4),
        "{cfg} ({m}x{n}x{k}): vs f64 oracle diff {}",
        got.max_abs_diff(&oracle)
    );
    assert!(
        got.allclose(&reference, 1e-3, 1e-4),
        "{cfg} ({m}x{n}x{k}): vs reference diff {}",
        got.max_abs_diff(&reference)
    );
}

#[test]
fn parity_across_all_four_paper_levels() {
    for (i, cfg) in NmConfig::paper_levels(32).into_iter().enumerate() {
        assert_parity(96, 160, 128, cfg, 100 + i as u64);
    }
    // Same levels at a small vector length (exercises narrow windows).
    for (i, cfg) in NmConfig::paper_levels(4).into_iter().enumerate() {
        assert_parity(33, 96, 52, cfg, 200 + i as u64);
    }
}

#[test]
fn parity_on_ragged_shapes() {
    // Every dimension deliberately misaligned with M, L and the tile sizes.
    let shapes = [(37, 67, 45), (1, 129, 31), (63, 250, 100), (130, 70, 7)];
    for (i, (m, k, n)) in shapes.into_iter().enumerate() {
        assert_parity(m, k, n, NmConfig::new(2, 16, 4).unwrap(), 300 + i as u64);
        assert_parity(m, k, n, NmConfig::new(6, 16, 8).unwrap(), 400 + i as u64);
    }
}

#[test]
fn parity_at_the_exact_seventy_percent_boundary() {
    // 3:10 is exactly 70% sparse — the packed path engages (>= threshold);
    // 4:10 (60%) sits just below — the direct path stays. Both must agree
    // with the oracle, so the strategy flip is invisible in the numerics.
    let at = NmConfig::new(3, 10, 5).unwrap();
    let below = NmConfig::new(4, 10, 5).unwrap();
    assert!((at.sparsity() - 0.70).abs() < 1e-12, "3:10 is the boundary");
    assert!(uses_packing(at), "exactly 70% must take the packed path");
    assert!(!uses_packing(below), "60% must stay on the direct path");
    assert_parity(41, 60, 55, at, 500);
    assert_parity(41, 60, 55, below, 501);
}

#[test]
fn cpu_backend_runs_plans_and_rejects_unalignable_blocking() {
    let dev = a100_80g();
    // A plannable config: the session executes the plan.
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let plan = Planner::new(dev.clone()).plan(64, 128, 96, cfg).unwrap();
    let a = MatrixF32::random(64, 96, 7);
    let b = MatrixF32::random(96, 128, 8);
    let sb = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
    let expect = spmm_reference(&a, &sb);
    let session = SessionBuilder::new(dev.clone()).build().unwrap();
    let layer = session.load_planned(plan, sb).unwrap();
    let run = layer.forward(&a).unwrap();
    assert!(run.c.allclose(&expect, 1e-3, 1e-4));
    assert_eq!(layer.backend(), BackendKind::Cpu(NmVersion::V3));

    // L = 48 divides no autotune candidate: the plan falls back to the
    // preset, whose ns cannot drive the CPU tiles — structured error, not
    // a panic.
    let cfg48 = NmConfig::new(2, 16, 48).unwrap();
    let plan48 = Planner::new(dev.clone()).plan(64, 96, 96, cfg48).unwrap();
    let b48 = MatrixF32::random(96, 96, 9);
    let sb48 = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b48, cfg48).unwrap());
    let err = session.load_planned(plan48, sb48).err().unwrap();
    assert!(
        matches!(err, NmError::InvalidBlocking { .. }),
        "expected InvalidBlocking, got: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the kernel agrees with the f64 oracle on arbitrary shapes
    /// at every paper level, and with itself pinned to one worker.
    #[test]
    fn ladder_parity_holds_for_arbitrary_shapes(
        m in 1usize..80,
        k in 1usize..200,
        n in 1usize..120,
        level in 0usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = NmConfig::paper_levels(8)[level];
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed ^ 0x77);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let oracle = gemm_reference_f64(&a, &sb.decompress());
        let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
        let prep = CpuPrepared::new(&sb, tiling).unwrap();
        let got = spmm_cpu_prepared(&a, &prep).unwrap();
        let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
        prop_assert_eq!(got.as_slice(), serial.as_slice());
        prop_assert!(
            got.allclose(&oracle, 1e-3, 1e-4),
            "{} ({}x{}x{}): max diff {}",
            cfg, m, n, k, got.max_abs_diff(&oracle)
        );
    }
}
