//! Property-based tests on the core data structures and the end-to-end
//! numeric path: for arbitrary shapes, configurations and seeds, the
//! format's invariants and the equivalence of all execution paths must
//! hold.

mod common;

use common::one_worker;
use nm_spmm::core::colinfo::preprocess;
use nm_spmm::core::prune::{select, PrunePolicy};
use nm_spmm::core::spmm::{gemm_reference, spmm_reference};
use nm_spmm::kernels::cpu::{spmm_cpu_prepared, CpuPrepared, CpuTiling};
use nm_spmm::kernels::{KernelChoice, NmSpmmKernel, NmVersion, SessionBuilder};
use nm_spmm::prelude::*;
use proptest::prelude::*;

/// Arbitrary valid (N, M, L) with M ∈ {2,4,8,16,32}, N ≤ M.
fn arb_config() -> impl Strategy<Value = NmConfig> {
    (
        0usize..5,
        1usize..=32,
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16)],
    )
        .prop_map(|(mi, nraw, l)| {
            let m = 2usize << mi; // 2,4,8,16,32
            let n = 1 + (nraw - 1) % m;
            NmConfig::new(n, m, l).expect("constructed valid")
        })
}

fn arb_policy() -> impl Strategy<Value = PrunePolicy> {
    prop_oneof![
        Just(PrunePolicy::Magnitude),
        any::<u64>().prop_map(|seed| PrunePolicy::Random { seed }),
        Just(PrunePolicy::Strided),
        Just(PrunePolicy::FirstN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compression is lossless on the kept entries and zero elsewhere.
    #[test]
    fn compress_decompress_roundtrip(
        cfg in arb_config(),
        policy in arb_policy(),
        k in 1usize..96,
        n in 1usize..64,
        seed in 0u64..1000,
    ) {
        let b = MatrixF32::random(k, n, seed);
        let sb = NmSparseMatrix::prune(&b, cfg, policy).expect("prune");
        sb.validate().expect("canonical");
        let dec = sb.decompress();
        prop_assert_eq!(dec.shape(), (k, n));
        let mask = sb.dense_mask();
        for i in 0..k {
            for j in 0..n {
                if mask.get(i, j) == 1.0 {
                    prop_assert_eq!(dec.get(i, j), b.get(i, j));
                } else {
                    prop_assert_eq!(dec.get(i, j), 0.0);
                }
            }
        }
    }

    /// Exactly N entries survive per fully-interior pruning window column.
    #[test]
    fn selection_counts_per_window(
        cfg in arb_config(),
        policy in arb_policy(),
        windows in 1usize..4,
        seed in 0u64..1000,
    ) {
        let k = windows * cfg.m;
        let n = 2 * cfg.l;
        let b = MatrixF32::random(k, n, seed);
        let d = select(&b, cfg, policy);
        d.validate(cfg).expect("canonical selection");
        prop_assert_eq!(d.w(), windows * cfg.n);
        prop_assert_eq!(d.q(), 2);
        let sb = NmSparseMatrix::compress(&b, cfg, d).expect("compress");
        let mask = sb.dense_mask();
        for wi in 0..windows {
            for wj in 0..2 {
                let mut kept = 0usize;
                for t in 0..cfg.m {
                    // A vector is kept iff its first element survives.
                    if mask.get(wi * cfg.m + t, wj * cfg.l) == 1.0 {
                        kept += 1;
                    }
                }
                prop_assert_eq!(kept, cfg.n, "window ({}, {})", wi, wj);
            }
        }
    }

    /// Eq. (1) on the compressed form equals dense GEMM on the decompressed
    /// matrix, for arbitrary shapes (including ones that need padding).
    #[test]
    fn spmm_equals_dense_on_decompressed(
        cfg in arb_config(),
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed + 1);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Magnitude).expect("prune");
        let via_sparse = spmm_reference(&a, &sb);
        let via_dense = gemm_reference(&a, &sb.decompress());
        prop_assert!(
            via_sparse.allclose(&via_dense, 1e-3, 1e-4),
            "max diff {}",
            via_sparse.max_abs_diff(&via_dense)
        );
    }

    /// The CPU kernel agrees with the oracle (taking the packed class
    /// wherever the arbitrary config is highly sparse), and with itself
    /// pinned to one worker, bit for bit.
    #[test]
    fn cpu_paths_agree(
        cfg in arb_config(),
        m in 1usize..20,
        kw in 1usize..4,
        nw in 1usize..4,
        seed in 0u64..1000,
    ) {
        let k = kw * cfg.m * 2;
        let n = nw * cfg.l * 2;
        let a = MatrixF32::random(m, k, seed);
        let b = MatrixF32::random(k, n, seed + 1);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).expect("prune");
        let oracle = spmm_reference(&a, &sb);
        let tiling = CpuTiling::auto(cfg, m, n, k).expect("tiling");
        let prep = CpuPrepared::new(&sb, tiling).expect("staging");
        let got = spmm_cpu_prepared(&a, &prep).expect("cpu kernel");
        let serial = one_worker(|| spmm_cpu_prepared(&a, &prep)).expect("cpu kernel");
        prop_assert_eq!(got.as_slice(), serial.as_slice());
        prop_assert!(
            got.allclose(&oracle, 1e-3, 1e-4),
            "max diff {}",
            got.max_abs_diff(&oracle)
        );
    }

    /// Offline pre-processing invariants: every block's list is sorted and
    /// unique, and the mean ratio is within the analytic bounds.
    #[test]
    fn packing_preprocess_invariants(
        nw in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = NmConfig::new(2, 16, 8).expect("config");
        let k = 64;
        let n = nw * 16;
        let b = MatrixF32::random(k, n, seed);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).expect("prune");
        let ci = preprocess(&sb, 32, 16).expect("preprocess");
        let lower = cfg.n as f64 / cfg.m as f64;
        let upper = 1.0;
        let ratio = ci.mean_packing_ratio();
        prop_assert!(ratio >= lower - 1e-12 && ratio <= upper + 1e-12, "ratio {}", ratio);
        for bk in 0..ci.kblocks {
            for bj in 0..ci.cblocks {
                let list = ci.block(bk, bj);
                prop_assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// Bit-packed index storage round-trips for every legal M.
    #[test]
    fn bitpack_roundtrip(
        cfg in arb_config(),
        w in 1usize..16,
        q in 1usize..16,
        seed in 0u64..1000,
    ) {
        use nm_spmm::core::index::IndexMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..w * q).map(|_| rng.gen_range(0..cfg.m) as u8).collect();
        let d = IndexMatrix::from_vec(w, q, data);
        let packed = d.bit_pack(cfg);
        let back = IndexMatrix::bit_unpack(&packed, w, q, cfg).expect("unpack");
        prop_assert_eq!(d, back);
    }
}

proptest! {
    // Each case plans a fresh session; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The prediction for a V3 plan on arbitrary problems covers the
    /// oracle's work: its grid spans every output element and its FMAs
    /// cover every useful one.
    #[test]
    fn simulated_kernel_matches_oracle(
        m in 1usize..80,
        n in 1usize..90,
        k in 1usize..160,
        nn in prop_oneof![Just(2usize), Just(4), Just(6), Just(8)],
        seed in 0u64..100,
    ) {
        let cfg = NmConfig::new(nn, 16, 32).expect("config");
        let b = MatrixF32::random(k, n, seed + 1);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).expect("prune");
        let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
        let mut plan = session.plan(m, n, k, cfg).expect("plan");
        plan.choice = KernelChoice::NmV3;
        let nm = NmSpmmKernel::new(NmVersion::V3, plan.params)
            .plan(session.device(), m, n, k, cfg)
            .expect("kernel plan");
        let (stats, report) = plan.predict(session.device(), m, &sb).expect("prediction");
        let (gy, gx) = nm.grid;
        let p = nm.blocking.params;
        prop_assert!(gy * p.ms >= m && gx * p.ns >= n);
        prop_assert_eq!(stats.blocks, (gy * gx * nm.split_k) as u64);
        prop_assert!(stats.ffma >= (m * n * cfg.compressed_rows(k)) as u64);
        prop_assert!(report.seconds > 0.0 && report.seconds.is_finite());
    }
}
