//! End-to-end tests of the extension features working together: the full
//! deployment pipeline (permute → layer-wise allocate → prune → serialize →
//! load into a prepared session → forward → the plan's simulated
//! prediction → energy), the auto-tuner, and the sparse-tensor-core
//! comparison.

use nm_spmm::analysis::packing::expected_ratio;
use nm_spmm::core::inspect::{measured_packing_ratio, pattern_stats};
use nm_spmm::core::layerwise::{allocate, spec_from_weights};
use nm_spmm::core::permute;
use nm_spmm::core::prune::PrunePolicy;
use nm_spmm::core::serialize;
use nm_spmm::core::spmm::spmm_reference;
use nm_spmm::kernels::{autotune, NmSpmmKernel, NmVersion, SessionBuilder, SparseTensorCoreKernel};
use nm_spmm::prelude::*;
use nm_spmm::sim::energy;

#[test]
fn full_deployment_pipeline() {
    let (m, k, n) = (32usize, 128usize, 96usize);
    let weights = MatrixF32::random(k, n, 11);
    let activations = MatrixF32::random(m, k, 12);
    let m_window = 16;
    let l = 8;

    // 1. Layer-wise allocation picks an N for this (single) layer.
    let specs = vec![spec_from_weights("layer", &weights, m_window, l, m)];
    let alloc = allocate(&specs, m_window, 0.3);
    let cfg = NmConfig::new(alloc.n_per_layer[0], m_window, l).expect("config");

    // 2. Channel permutation improves retained magnitude (or is a no-op).
    let perm = permute::search(&weights, cfg, 2);
    assert!(perm.retained_after >= perm.retained_before - 1e-9);
    let wp = perm.apply_to_b(&weights);
    let ap = perm.apply_to_a(&activations);

    // 3. Prune, serialize, reload.
    let sb = NmSparseMatrix::prune_magnitude(&wp, cfg).expect("prune");
    let blob = serialize::to_bytes(&sb);
    let sb = serialize::from_bytes(&blob).expect("reload");

    // 4. Prepared-session CPU execution matches the oracle — and a
    //    second forward against the same handle agrees, proving the
    //    staged state is reusable.
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let layer = session.load(sb.clone(), m).expect("load layer");
    let c = layer.forward(&ap).expect("forward").c;
    let oracle = spmm_reference(&ap, &sb);
    assert!(c.allclose(&oracle, 1e-3, 1e-4));
    let again = layer.forward(&ap).expect("forward again").c;
    assert!(again.allclose(&oracle, 1e-3, 1e-4));

    // 5. The simulator predicts the layer's plan beside the kernel —
    //    event counts and timing — and energy is accounted from them.
    let (stats, report) = (layer.plan())
        .predict(session.device(), m, layer.weights())
        .expect("prediction");
    let e = energy::estimate(session.device(), &stats, &report);
    assert!(e.total_j() > 0.0 && e.total_j().is_finite());

    // 6. The decode-shape path agrees too.
    let y = layer.forward_vec(ap.row(0)).expect("forward_vec").c;
    for (a, b) in y.row(0).iter().zip(oracle.row(0)) {
        assert!((a - b).abs() <= 1e-4 + 1e-3 * b.abs());
    }
}

#[test]
fn inspection_predicts_packing_behavior() {
    let cfg = NmConfig::new(2, 16, 8).expect("config");
    let b = MatrixF32::random(128, 64, 21);

    let random = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 2 }).expect("prune");
    let strided = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Strided).expect("prune");

    let s_rand = pattern_stats(&random);
    let s_strided = pattern_stats(&strided);
    assert!(s_strided.adjacent_window_jaccard > s_rand.adjacent_window_jaccard);

    // Measured ratio for random patterns tracks the analytic expectation.
    let measured = measured_packing_ratio(&random, 32, 32).expect("ratio");
    let predicted = expected_ratio(cfg, 32 / cfg.l);
    assert!(
        (measured - predicted).abs() < 0.08,
        "measured {measured} vs predicted {predicted}"
    );
    // And strided packs to the floor.
    let floor = measured_packing_ratio(&strided, 32, 32).expect("ratio");
    assert!((floor - 0.125).abs() < 1e-9);
}

#[test]
fn autotuner_beats_or_matches_every_table_i_preset() {
    let dev = a100_80g();
    let cfg = NmConfig::new(2, 16, 32).expect("config");
    let (m, n, k) = (1024usize, 2048usize, 2048usize);
    let tuned = autotune::tune(&dev, m, n, k, cfg).expect("tune");
    for (label, p) in nm_spmm::kernels::BlockingParams::table_i() {
        if let Ok(rep) = NmSpmmKernel::new(NmVersion::V3, p).estimate(&dev, m, n, k, cfg, None) {
            assert!(
                tuned.report.seconds <= rep.seconds * 1.0001,
                "tuned {} loses to preset {label} {}",
                tuned.report.seconds,
                rep.seconds
            );
        }
    }
}

#[test]
fn sparse_tensor_core_comparison_is_scoped_to_2_4() {
    let dev = a100_80g();
    // NM-SpMM handles every level; the hardware path only 2:4.
    for cfg in [
        NmConfig::new(2, 16, 32).expect("config"),
        NmConfig::new(6, 16, 32).expect("config"),
    ] {
        assert!(SparseTensorCoreKernel
            .estimate(&dev, 1024, 1024, 1024, cfg)
            .is_err());
        assert!(NmSpmmKernel::auto(NmVersion::V3, 1024, 1024)
            .estimate(&dev, 1024, 1024, 1024, cfg, None)
            .is_ok());
    }
}

#[test]
fn serialized_blob_survives_simulated_execution() {
    // Serialize -> reload -> a forward over the reloaded weights equals
    // the original's oracle, and the plan predicts a launch over them.
    let cfg = NmConfig::new(4, 16, 8).expect("config");
    let b = MatrixF32::random(64, 64, 31);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune");
    let blob = serialize::to_bytes(&sb).to_vec();
    let back = serialize::from_bytes(&blob).expect("reload");
    let a = MatrixF32::random(16, 64, 32);
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let layer = session.load(back, 16).expect("load");
    let run = layer.forward(&a).expect("run");
    assert!(run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4));
    let (_, report) = (layer.plan())
        .predict(session.device(), 16, layer.weights())
        .expect("prediction");
    assert!(report.seconds > 0.0);
}
