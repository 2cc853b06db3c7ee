//! Cross-crate performance-model invariants: the simulated timing must
//! reproduce the paper's qualitative claims on every device, and the
//! analysis model's predictions must be consistent with the simulator.

use nm_spmm::analysis::ai::BlockAi;
use nm_spmm::analysis::packing::expected_ratio;
use nm_spmm::kernels::params::BlockingParams;
use nm_spmm::kernels::{DenseGemmKernel, NmSparseKernel, NmSpmmKernel, NmVersion, SputnikKernel};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::{a100_80g, paper_devices};
use nm_spmm::workloads::levels::benchmark_levels;

#[test]
fn speedup_grows_with_sparsity_and_stays_below_ideal() {
    // Fig. 9's green dashed line: the computation-reduction bound M/N.
    for dev in paper_devices() {
        let dense = DenseGemmKernel::new(BlockingParams::large())
            .estimate(&dev, 4096, 4096, 4096)
            .expect("dense");
        let mut last = 0.0;
        for cfg in benchmark_levels() {
            let rep = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large())
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .expect("estimate");
            let speedup = dense.seconds / rep.seconds;
            assert!(
                speedup > last,
                "{}: speedup must grow with sparsity ({speedup} !> {last} at {cfg})",
                dev.name
            );
            assert!(
                speedup <= cfg.ideal_speedup() * 1.001,
                "{}: speedup {speedup} exceeds the ideal {} at {cfg}",
                dev.name,
                cfg.ideal_speedup()
            );
            last = speedup;
        }
    }
}

#[test]
fn step_wise_versions_are_ordered_everywhere() {
    // Fig. 7: V3 ≤ V2 ≤ V1 in time, at every sparsity level on every GPU
    // (small tolerance for wave-quantization noise).
    for dev in paper_devices() {
        for cfg in benchmark_levels() {
            let t = |v| {
                NmSpmmKernel::new(v, BlockingParams::large())
                    .estimate(&dev, 4096, 4096, 4096, cfg, None)
                    .expect("estimate")
                    .seconds
            };
            let (t1, t2, t3) = (t(NmVersion::V1), t(NmVersion::V2), t(NmVersion::V3));
            assert!(t2 <= t1 * 1.001, "{}@{cfg}: V2 {t2} > V1 {t1}", dev.name);
            assert!(t3 <= t2 * 1.02, "{}@{cfg}: V3 {t3} > V2 {t2}", dev.name);
        }
    }
}

#[test]
fn sparsity_aware_gains_concentrate_at_high_sparsity() {
    // §IV-B: at 50%/62.5% V1 is already strong (V3 gains small); at
    // 75%/87.5% the V2+V3 optimizations matter more on every device.
    for dev in paper_devices() {
        let gain = |cfg: NmConfig| {
            let t1 = NmSpmmKernel::new(NmVersion::V1, BlockingParams::large())
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .expect("v1")
                .seconds;
            let t3 = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large())
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .expect("v3")
                .seconds;
            t1 / t3
        };
        let levels = benchmark_levels();
        let moderate = gain(levels[0]);
        let high = gain(levels[3]);
        assert!(
            high > moderate,
            "{}: V1->V3 gain at 87.5% ({high}) must exceed the gain at 50% ({moderate})",
            dev.name
        );
    }
}

#[test]
fn nm_spmm_beats_both_baselines_on_the_dataset_sample() {
    let dev = a100_80g();
    for cfg in benchmark_levels() {
        for (m, n, k) in [(512usize, 4096usize, 4096usize), (2048, 11008, 4096)] {
            let ours = NmSpmmKernel::auto(NmVersion::V3, m, n)
                .estimate(&dev, m, n, k, cfg, None)
                .expect("ours")
                .seconds;
            let nmsp = NmSparseKernel
                .estimate(&dev, m, n, k, cfg)
                .expect("nmsparse")
                .seconds;
            let sput = SputnikKernel.estimate(&dev, m, n, k, cfg).seconds;
            assert!(
                ours < nmsp,
                "{cfg} {m}x{n}x{k}: NM-SpMM {ours} !< nmSPARSE {nmsp}"
            );
            assert!(
                ours < sput,
                "{cfg} {m}x{n}x{k}: NM-SpMM {ours} !< Sputnik {sput}"
            );
        }
    }
}

#[test]
fn a100_gains_more_from_sparsity_than_consumer_cards() {
    // §IV-D: "On the 3090 and 4090 … NM-SpMM shows smaller performance
    // gains from N:M sparsity".
    let cfg = benchmark_levels()[3]; // 87.5%
    let mut speedups = Vec::new();
    for dev in paper_devices() {
        let dense = DenseGemmKernel::new(BlockingParams::large())
            .estimate(&dev, 4096, 4096, 4096)
            .expect("dense");
        let rep = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large())
            .estimate(&dev, 4096, 4096, 4096, cfg, None)
            .expect("ours");
        speedups.push(dense.seconds / rep.seconds);
    }
    assert!(
        speedups[0] > speedups[1] && speedups[0] > speedups[2],
        "A100 speedup {} must exceed 3090 {} and 4090 {}",
        speedups[0],
        speedups[1],
        speedups[2]
    );
}

#[test]
fn packed_ai_prediction_is_consistent_with_measured_ratio() {
    // The expected-union model and the measured col_info ratio agree for
    // random patterns (the basis of the analytic estimates).
    let cfg = NmConfig::new(2, 16, 32).expect("config");
    let b = MatrixF32::random(1024, 512, 3);
    let sb = NmSparseMatrix::prune(
        &b,
        cfg,
        nm_spmm::core::prune::PrunePolicy::Random { seed: 17 },
    )
    .expect("prune");
    let col_info = nm_spmm::core::colinfo::preprocess(&sb, 256, 128).expect("preprocess");
    let measured = col_info.mean_packing_ratio();
    let predicted = expected_ratio(cfg, 128 / 32);
    assert!(
        (measured - predicted).abs() < 0.05,
        "measured ρ {measured} vs predicted {predicted}"
    );
}

#[test]
fn block_ai_decreases_with_sparsity_at_fixed_blocking() {
    // Eq. (3) through the actual planner: at fixed Table I parameters, the
    // *unpacked* block AI falls as sparsity rises even though ks adapts.
    let dev = a100_80g();
    let mut last = f64::INFINITY;
    for cfg in benchmark_levels() {
        let plan = NmSpmmKernel::new(NmVersion::V1, BlockingParams::large())
            .plan(&dev, 4096, 4096, 4096, cfg)
            .expect("plan");
        let b = plan.blocking;
        let ai = BlockAi {
            ms: b.params.ms,
            ns: b.params.ns,
            ks: b.ks,
            ws: b.ws,
        }
        .flops_per_byte();
        assert!(
            ai < last,
            "unpacked AI must fall with sparsity: {ai} !< {last}"
        );
        last = ai;
    }
}

#[test]
fn efficiency_reports_are_well_formed() {
    let dev = a100_80g();
    for cfg in benchmark_levels() {
        for (m, n, k) in [(256usize, 512usize, 512usize), (4096, 4096, 4096)] {
            let rep = NmSpmmKernel::auto(NmVersion::V3, m, n)
                .estimate(&dev, m, n, k, cfg, None)
                .expect("estimate");
            assert!(rep.seconds > 0.0 && rep.seconds.is_finite());
            assert!(rep.cycles > 0.0);
            assert!(
                (0.0..=1.0).contains(&rep.efficiency),
                "eff {}",
                rep.efficiency
            );
            assert!(rep.waves >= 1);
            assert!(rep.blocks_per_sm >= 1);
            assert!((0.0..=1.0).contains(&rep.traffic.miss_fraction));
        }
    }
}
