//! Micro-kernel ISA parity: every micro-kernel this host can execute
//! (scalar, plus AVX2 / AVX-512 on x86_64 or NEON on aarch64) must produce
//! the same kernel results as the f64 oracle, on all workers and bit for
//! bit pinned to one — across ragged shapes, all four paper sparsity
//! levels, and both tile widths (`L = 16` exercises the 4×16 tile,
//! `L = 32` the 4×32 dual-accumulator tile).
//!
//! Runtime dispatch must also be *provably safe*: kernels for ISAs the
//! host does not support are unconstructible, so no test (and no caller)
//! can ever reach an illegal instruction.

mod common;

use common::one_worker;
use nm_spmm::core::spmm::gemm_reference_f64;
use nm_spmm::kernels::cpu::{spmm_cpu_prepared, CpuPrepared, CpuTiling};
use nm_spmm::kernels::simd::{Isa, MicroKernel};
use nm_spmm::prelude::*;
use proptest::prelude::*;

/// Run the kernel under one explicit micro-kernel and compare to the f64
/// oracle and to itself pinned to one worker.
fn assert_kernel_parity(mk: MicroKernel, m: usize, k: usize, n: usize, cfg: NmConfig, seed: u64) {
    let a = MatrixF32::random(m, k, seed);
    let b = MatrixF32::random(k, n, seed ^ 0x51d);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
    let oracle = gemm_reference_f64(&a, &sb.decompress());
    let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
    let prep = CpuPrepared::with_kernel(&sb, tiling, mk).unwrap();
    assert_eq!(prep.isa(), mk.isa());
    let got = spmm_cpu_prepared(&a, &prep).unwrap();
    let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
    let tag = format!("{mk} {cfg} ({m}x{n}x{k})");
    assert_eq!(got.as_slice(), serial.as_slice(), "{tag}: one worker");
    assert!(
        got.allclose(&oracle, 1e-3, 1e-4),
        "{tag}: vs f64 oracle diff {}",
        got.max_abs_diff(&oracle)
    );
}

#[test]
fn every_available_kernel_matches_the_oracle_across_paper_levels() {
    for mk in MicroKernel::available() {
        // L = 32: the 4×32 dual-accumulator tile carries the fast path.
        for (i, cfg) in NmConfig::paper_levels(32).into_iter().enumerate() {
            assert_kernel_parity(mk, 48, 96, 64, cfg, 600 + i as u64);
        }
        // L = 16: the 4×16 tile.
        for (i, cfg) in NmConfig::paper_levels(16).into_iter().enumerate() {
            assert_kernel_parity(mk, 33, 80, 48, cfg, 700 + i as u64);
        }
    }
}

#[test]
fn every_available_kernel_matches_on_ragged_shapes() {
    // Dimensions misaligned with M, L and every tile size, including a
    // k that is not a multiple of the k-block (the tail-block fast path)
    // and a k that is not a multiple of M (the padded-tail fallback).
    let shapes = [(37, 67, 45), (5, 129, 31), (63, 100, 70), (9, 40, 33)];
    for mk in MicroKernel::available() {
        for (i, (m, k, n)) in shapes.into_iter().enumerate() {
            assert_kernel_parity(
                mk,
                m,
                k,
                n,
                NmConfig::new(2, 16, 16).unwrap(),
                800 + i as u64,
            );
            assert_kernel_parity(
                mk,
                m,
                k,
                n,
                NmConfig::new(3, 10, 5).unwrap(),
                900 + i as u64,
            );
        }
    }
}

#[test]
fn dispatch_never_constructs_an_unsupported_kernel() {
    // Everything `available()` advertises is constructible and reports a
    // supported ISA; everything else is a structured error.
    let available: Vec<Isa> = MicroKernel::available().iter().map(|m| m.isa()).collect();
    assert!(available.contains(&Isa::Scalar));
    for isa in Isa::ALL {
        if available.contains(&isa) {
            assert!(isa.supported());
            assert_eq!(MicroKernel::for_isa(isa).unwrap().isa(), isa);
        } else {
            assert!(!isa.supported());
            assert!(
                MicroKernel::for_isa(isa).is_err(),
                "{isa}: unsupported ISAs must be unconstructible"
            );
        }
    }
    // The default selection is always one of the advertised kernels.
    assert!(available.contains(&MicroKernel::native().isa()));
}

#[test]
fn scalar_kernel_is_always_available_for_the_forced_fallback() {
    // CI forces this path on SIMD hosts via NM_SPMM_ISA=scalar; the
    // kernel itself must exist everywhere unconditionally.
    assert_eq!(
        MicroKernel::for_isa(Isa::from_name("scalar").unwrap()).unwrap(),
        MicroKernel::scalar()
    );
    assert!(Isa::Scalar.supported());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: every compiled micro-kernel agrees with the f64 oracle on
    /// arbitrary shapes at every paper level. (On an AVX2/AVX-512 host this
    /// sweeps the SIMD kernels; on aarch64 the NEON kernel; everywhere at
    /// least the scalar fallback.)
    #[test]
    fn kernel_parity_holds_for_arbitrary_shapes(
        m in 1usize..64,
        k in 1usize..160,
        n in 1usize..96,
        level in 0usize..4,
        wide in 0usize..2,
        seed in 0u64..1000,
    ) {
        let l = if wide == 1 { 32 } else { 16 };
        let cfg = NmConfig::paper_levels(l)[level];
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed ^ 0x99);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let oracle = gemm_reference_f64(&a, &sb.decompress());
        let tiling = CpuTiling::auto(cfg, m, n, k).unwrap();
        for mk in MicroKernel::available() {
            let prep = CpuPrepared::with_kernel(&sb, tiling, mk).unwrap();
            let got = spmm_cpu_prepared(&a, &prep).unwrap();
            let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).unwrap();
            prop_assert_eq!(got.as_slice(), serial.as_slice());
            prop_assert!(
                got.allclose(&oracle, 1e-3, 1e-4),
                "{} {} ({}x{}x{}): max diff {}",
                mk, cfg, m, n, k, got.max_abs_diff(&oracle)
            );
        }
    }
}
