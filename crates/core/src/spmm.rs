//! Reference matrix-multiplication kernels.
//!
//! These are the correctness oracles for every optimized implementation in
//! the workspace (CPU-parallel and simulated-GPU alike):
//!
//! * [`gemm_reference`] — naive dense `C = A·B` in `f32`,
//! * [`gemm_reference_f64`] — the same with `f64` accumulation, used to
//!   bound rounding error when comparing differently-ordered reductions,
//! * [`spmm_reference`] — Eq. (1) of the paper evaluated directly on the
//!   compressed representation (`scale = 1`),
//! * [`spmm_reference_scaled`] — Eq. (1) including the `M/N` magnitude
//!   compensation factor.
//!
//! Identity tested throughout:
//! `spmm_reference(A, SB) == gemm_reference(A, SB.decompress())`.

use crate::matrix::MatrixF32;
use crate::sparse::NmSparseMatrix;

/// Naive dense `C[m][n] = A[m][k] · B[k][n]`, `f32` accumulation, `ikj` loop
/// order (stream-friendly but otherwise unoptimized).
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn gemm_reference(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimension mismatch: A is m x {k}, B is {kb} x n"
    );
    let mut c = MatrixF32::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// Dense GEMM with `f64` accumulation, rounded to `f32` at the end.
/// Used as the high-precision oracle for error budgets.
pub fn gemm_reference_f64(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimension mismatch");
    let mut acc = vec![0f64; m * n];
    for i in 0..m {
        let a_row = a.row(i);
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            let out = &mut acc[i * n..(i + 1) * n];
            for (cv, bv) in out.iter_mut().zip(b_row) {
                *cv += av as f64 * *bv as f64;
            }
        }
    }
    MatrixF32::from_vec(m, n, acc.into_iter().map(|v| v as f32).collect())
}

/// Paper Eq. (1) with unit scale: `C[i][j] = Σ_u A[i][base(u) + D[u][j/L]] · B′[u][j]`,
/// where `base(u) = ⌊u/N⌋·M` is the pruning window's first `k`-row.
///
/// Equivalent to `gemm_reference(a, sb.decompress())` up to the reduction
/// order (the sum skips pruned terms, which are exact zeros).
///
/// # Panics
/// Panics when `a.cols() != sb.k()`.
pub fn spmm_reference(a: &MatrixF32, sb: &NmSparseMatrix) -> MatrixF32 {
    spmm_with_scale(a, sb, 1.0)
}

/// Paper Eq. (1) including the `M/N` magnitude-compensation factor.
pub fn spmm_reference_scaled(a: &MatrixF32, sb: &NmSparseMatrix) -> MatrixF32 {
    let cfg = sb.cfg();
    spmm_with_scale(a, sb, cfg.m as f32 / cfg.n as f32)
}

fn spmm_with_scale(a: &MatrixF32, sb: &NmSparseMatrix, scale: f32) -> MatrixF32 {
    let (m, k) = a.shape();
    assert_eq!(
        k,
        sb.k(),
        "inner dimension mismatch: A is m x {k}, sparse B expects k = {}",
        sb.k()
    );
    let cfg = sb.cfg();
    let n = sb.cols();
    let q = sb.q();
    let d = sb.indices();

    // Windows write disjoint columns, so each `C` element sums over `u`
    // in ascending order.
    let mut c = MatrixF32::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for j in 0..q {
            let lo = j * cfg.l;
            let hi = ((j + 1) * cfg.l).min(n);
            let panel = sb.panel(j).chunks_exact(hi - lo);
            for (u, b_row) in panel.enumerate() {
                let src = u / cfg.n * cfg.m + d.get(u, j) as usize;
                // Padded k rows read an implicit zero.
                let av = if src < k { a_row[src] } else { 0.0 };
                if av == 0.0 {
                    continue;
                }
                for (cv, bv) in c_row[lo..hi].iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
    if scale != 1.0 {
        for v in c.as_mut_slice() {
            *v *= scale;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NmConfig;
    use crate::prune::PrunePolicy;

    fn cfg(n: usize, m: usize, l: usize) -> NmConfig {
        NmConfig::new(n, m, l).unwrap()
    }

    #[test]
    fn gemm_identity() {
        let a = MatrixF32::random(5, 7, 1);
        let i = MatrixF32::eye(7, 7);
        assert!(gemm_reference(&a, &i).allclose(&a, 1e-6, 1e-7));
    }

    #[test]
    fn gemm_small_known_answer() {
        let a = MatrixF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = MatrixF32::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm_reference(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn spmm_equals_gemm_on_decompressed() {
        for (seed, c) in [
            (1u64, cfg(2, 4, 4)),
            (2, cfg(4, 16, 8)),
            (3, cfg(6, 16, 2)),
            (4, cfg(1, 8, 1)),
        ] {
            let a = MatrixF32::random(24, 32, seed);
            let b = MatrixF32::random(32, 40, seed + 100);
            let sb = NmSparseMatrix::prune(&b, c, PrunePolicy::Random { seed }).unwrap();
            let via_spmm = spmm_reference(&a, &sb);
            let via_dense = gemm_reference(&a, &sb.decompress());
            assert!(
                via_spmm.allclose(&via_dense, 1e-4, 1e-5),
                "mismatch for cfg {c}: max diff {}",
                via_spmm.max_abs_diff(&via_dense)
            );
        }
    }

    #[test]
    fn spmm_with_padding_matches_dense() {
        // k=19 (pads to 20 with M=4), n=13 (pads with L=4).
        let a = MatrixF32::random(9, 19, 5);
        let b = MatrixF32::random(19, 13, 6);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(2, 4, 4)).unwrap();
        let via_spmm = spmm_reference(&a, &sb);
        let via_dense = gemm_reference(&a, &sb.decompress());
        assert!(via_spmm.allclose(&via_dense, 1e-4, 1e-5));
    }

    #[test]
    fn scaled_variant_multiplies_by_m_over_n() {
        let a = MatrixF32::random(8, 16, 7);
        let b = MatrixF32::random(16, 8, 8);
        let c = cfg(2, 16, 4);
        let sb = NmSparseMatrix::prune_magnitude(&b, c).unwrap();
        let plain = spmm_reference(&a, &sb);
        let scaled = spmm_reference_scaled(&a, &sb);
        for (p, s) in plain.as_slice().iter().zip(scaled.as_slice()) {
            assert!((s - p * 8.0).abs() <= 1e-4 + 1e-4 * s.abs());
        }
    }

    #[test]
    fn dense_config_recovers_full_gemm() {
        let a = MatrixF32::random(8, 16, 9);
        let b = MatrixF32::random(16, 8, 10);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(4, 4, 4)).unwrap();
        let via_spmm = spmm_reference(&a, &sb);
        let dense = gemm_reference(&a, &b);
        assert!(via_spmm.allclose(&dense, 1e-4, 1e-5));
    }

    #[test]
    fn f64_reference_agrees_with_f32_on_small_inputs() {
        let a = MatrixF32::random(6, 10, 11);
        let b = MatrixF32::random(10, 6, 12);
        let c32 = gemm_reference(&a, &b);
        let c64 = gemm_reference_f64(&a, &b);
        assert!(c32.allclose(&c64, 1e-5, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_rejects_bad_shapes() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::zeros(4, 2);
        let _ = gemm_reference(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn spmm_rejects_bad_shapes() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::random(8, 8, 1);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg(2, 4, 4)).unwrap();
        let _ = spmm_reference(&a, &sb);
    }
}
