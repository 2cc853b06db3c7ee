//! Decode-path parity: the skinny row rungs (1–3 activation rows,
//! including the `m = 1` SpMV shape) must produce oracle-grade numerics
//! through every micro-kernel ISA this host can execute and every paper
//! sparsity level, on all workers and bit-identically pinned to one — and
//! the decode entry points
//! must be *free*: a prefill-prepared layer serves `forward_vec` with
//! zero additional offline staging, returning bit-for-bit the same
//! numbers as the matrix path on a one-row operand.

mod common;

use common::one_worker;
use nm_spmm::core::spmm::gemm_reference_f64;
use nm_spmm::kernels::cpu::{
    offline_staging_passes, spmm_cpu_prepared, spmv_cpu_prepared, CpuPrepared, CpuTiling,
};
use nm_spmm::kernels::simd::MicroKernel;
use nm_spmm::kernels::{BackendKind, NmVersion, SessionBuilder, ShapeClass};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use proptest::prelude::*;

const CPU: BackendKind = BackendKind::Cpu(NmVersion::V3);

/// One cell: the kernel on all workers matches the f64 oracle and the
/// same preparation pinned to one worker, bit for bit.
fn check_cell(a: &MatrixF32, sb: &NmSparseMatrix, prep: &CpuPrepared, tag: &str) {
    let oracle = gemm_reference_f64(a, &sb.decompress());
    let got = spmm_cpu_prepared(a, prep).unwrap();
    let serial = one_worker(|| spmm_cpu_prepared(a, prep)).unwrap();
    assert_eq!(got.as_slice(), serial.as_slice(), "{tag}: one worker");
    assert!(
        got.allclose(&oracle, 1e-3, 1e-4),
        "{tag}: vs f64 oracle diff {}",
        got.max_abs_diff(&oracle)
    );
}

/// Decode-band row counts: the SpMV shape plus the 2-row and 1-row rungs
/// of the 4→2→1 ladder (3 rows takes the 2-rung *and* the 1-rung).
const SKINNY_ROWS: [usize; 3] = [1, 2, 3];

#[test]
fn skinny_rows_match_the_f64_oracle_across_isas_versions_and_levels() {
    // Ragged k (not a multiple of the window depth M) exercises the
    // padded-tail gather; ragged n exercises the partial column window.
    for mk in MicroKernel::available() {
        for (li, cfg) in NmConfig::paper_levels(16).into_iter().enumerate() {
            for (mi, m) in SKINNY_ROWS.into_iter().enumerate() {
                let (k, n) = (90, 49);
                let seed = 4000 + (li * 8 + mi) as u64;
                let a = MatrixF32::random(m, k, seed);
                let b = MatrixF32::random(k, n, seed ^ 0x77);
                let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
                let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
                let prep = CpuPrepared::with_kernel(&sb, tiling, mk).unwrap();
                check_cell(&a, &sb, &prep, &format!("{mk} {cfg} m={m}"));
            }
        }
        // L = 32 drives the dual-accumulator (×32) skinny tiles.
        for (li, cfg) in NmConfig::paper_levels(32).into_iter().enumerate() {
            let (m, k, n) = (1, 70, 64);
            let seed = 4800 + li as u64;
            let a = MatrixF32::random(m, k, seed);
            let b = MatrixF32::random(k, n, seed ^ 0x77);
            let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
            let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
            let prep = CpuPrepared::with_kernel(&sb, tiling, mk).unwrap();
            check_cell(&a, &sb, &prep, &format!("{mk} {cfg} wide m=1"));
        }
    }
}

#[test]
fn spmv_prepared_matches_the_oracle_through_every_isa() {
    let cfg = NmConfig::new(2, 8, 16).unwrap();
    let (k, n) = (96, 48);
    let x: Vec<f32> = MatrixF32::random(1, k, 51).into_vec();
    let b = MatrixF32::random(k, n, 52);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
    let a = MatrixF32::from_vec(1, k, x.clone());
    let oracle = gemm_reference_f64(&a, &sb.decompress());
    let tiling = CpuTiling::auto(cfg, 1, n, k).unwrap();
    for mk in MicroKernel::available() {
        let prep = CpuPrepared::with_kernel(&sb, tiling, mk).unwrap();
        let y = spmv_cpu_prepared(&x, &prep).unwrap();
        let serial = one_worker(|| spmv_cpu_prepared(&x, &prep)).unwrap();
        assert_eq!(y, serial, "{mk}: one worker");
        let got = MatrixF32::from_vec(1, n, y);
        assert!(
            got.allclose(&oracle, 1e-3, 1e-4),
            "{mk}: prepared SpMV vs f64 oracle diff {}",
            got.max_abs_diff(&oracle)
        );
    }
}

#[test]
fn column_split_is_bit_identical_to_one_worker_above_the_floor() {
    // k = 2048, n = 1024 at 2:8 stages many column blocks and slices:
    // with two or more workers, the kernel splits these one-panel calls
    // across column blocks (row-major) or slices (sliced) instead of
    // running them on one thread; pinned to one worker it does not.
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let (k, n) = (2048, 1024);
    let b = MatrixF32::random(k, n, 4900);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
    let tiling = CpuTiling::auto(cfg, 8, n, k).unwrap();
    assert!(tiling.mb >= 3, "setup: every m below is one row panel");
    for format in [
        StorageFormat::RowMajor,
        StorageFormat::Sliced(SlicedLayout::DEFAULT),
    ] {
        let prep = CpuPrepared::with_format(&sb, tiling, MicroKernel::select().unwrap(), format);
        let prep = prep.unwrap();
        for m in SKINNY_ROWS {
            let a = MatrixF32::random(m, k, 4901 + m as u64);
            check_cell(&a, &sb, &prep, &format!("{format} m={m}"));
        }
    }
}

#[test]
fn decode_steps_reuse_prefill_staging_with_zero_extra_passes() {
    // The load-bearing invariant of the decode refactor: a layer prepared
    // once (at prefill batch size) serves decode steps from the same
    // staged state. The staging counter proves it — across many decode
    // calls, on all workers and pinned to one, not one additional
    // offline pass.
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let (k, n) = (128, 96);
    let b = MatrixF32::random(k, n, 61);
    let sb = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
    let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
    let layer = session.load_on(sb.clone(), 128, CPU).unwrap();
    let before = offline_staging_passes();
    let x: Vec<f32> = MatrixF32::random(1, k, 62).into_vec();
    let first = layer.forward_vec(&x).unwrap();
    for _ in 0..4 {
        let again = layer.forward_vec(&x).unwrap();
        assert_eq!(
            again.c.as_slice(),
            first.c.as_slice(),
            "decode steps must be deterministic"
        );
        let serial = one_worker(|| layer.forward_vec(&x)).unwrap();
        assert_eq!(serial.c.as_slice(), first.c.as_slice(), "one worker");
    }
    // The matrix path at m = 1 shares the same staged state too.
    let a = MatrixF32::from_vec(1, k, x.clone());
    let mat = layer.forward(&a).unwrap();
    assert_eq!(
        mat.c.as_slice(),
        first.c.as_slice(),
        "forward_vec and the 1-row matrix path must agree bit-for-bit"
    );
    assert_eq!(
        offline_staging_passes() - before,
        0,
        "decode required additional offline staging"
    );
}

#[test]
fn decode_plans_carry_the_decode_shape_class() {
    // Planning the same weights at prefill and decode batch sizes must
    // produce distinct cache keys; the decode key carries the row count.
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
    let prefill = session.plan(512, 96, 128, cfg).unwrap();
    assert_eq!(prefill.key.shape, ShapeClass::Prefill);
    for m in [1usize, 2, 4, 8] {
        let plan = session.plan(m, 96, 128, cfg).unwrap();
        assert_eq!(plan.key.shape, ShapeClass::Decode(m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: `forward_vec(x)` is exactly `forward` of the 1×k dense
    /// operand — same staged state, same rung, bit-for-bit — on all
    /// workers and pinned to one, for arbitrary (k, n) and every paper
    /// level.
    #[test]
    fn forward_vec_equals_the_one_row_matrix_path(
        k in 1usize..160,
        n in 1usize..96,
        level in 0usize..4,
        wide in 0usize..2,
        seed in 0u64..1000,
    ) {
        let l = if wide == 1 { 32 } else { 16 };
        let cfg = NmConfig::paper_levels(l)[level];
        let b = MatrixF32::random(k, n, seed ^ 0xdec0);
        let sb = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let x: Vec<f32> = MatrixF32::random(1, k, seed).into_vec();
        let a = MatrixF32::from_vec(1, k, x.clone());
        let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
        let layer = session.load_on(sb.clone(), 64, CPU).unwrap();
        let vec_run = layer.forward_vec(&x).unwrap();
        let mat_run = one_worker(|| layer.forward(&a)).unwrap();
        prop_assert_eq!(vec_run.c.shape(), (1, n));
        prop_assert_eq!(vec_run.c.as_slice(), mat_run.c.as_slice());
    }
}
