//! End-to-end tests of the planner / session subsystem: cache hits on
//! identical keys, JSON persistence round trips, planning determinism (as
//! a property over arbitrary shapes), and the batched layer-sweep driver
//! tying the planner to execution through the session API.

use nm_spmm::core::spmm::spmm_reference;
use nm_spmm::kernels::plan::{PlanCache, PlanKey, Planner};
use nm_spmm::kernels::SessionBuilder;
use nm_spmm::prelude::*;
use nm_spmm::sim::device::{a100_80g, paper_devices, rtx3090};
use nm_spmm::workloads::llama::LLAMA_FAMILY;
use nm_spmm::workloads::sweep::{sweep_model, ExecutePolicy, SweepOptions};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nm-spmm-integration-{}-{name}", std::process::id()));
    p
}

#[test]
fn replanning_identical_key_is_a_counted_cache_hit() {
    let cfg = NmConfig::new(4, 16, 32).unwrap();
    let mut planner = Planner::new(a100_80g());
    let first = planner.plan(1024, 4096, 4096, cfg).unwrap();
    assert_eq!(planner.cache().misses(), 1);
    assert_eq!(planner.cache().hits(), 0);
    let second = planner.plan(1024, 4096, 4096, cfg).unwrap();
    assert_eq!(planner.cache().misses(), 1, "no re-tune on a warm key");
    assert_eq!(planner.cache().hits(), 1, "the hit must be counted");
    assert_eq!(first, second);
}

#[test]
fn plan_cache_json_save_load_round_trip() {
    let path = tmp_path("cache-roundtrip.json");
    let _ = std::fs::remove_file(&path);

    // Populate across devices and levels through the public API.
    let mut expected = Vec::new();
    let mut merged = PlanCache::new();
    for dev in paper_devices() {
        let mut planner = Planner::new(dev);
        for cfg in [
            NmConfig::new(8, 16, 32).unwrap(),
            NmConfig::new(2, 16, 32).unwrap(),
            NmConfig::new(2, 4, 32).unwrap(), // exercises the sparse-TC estimate
        ] {
            expected.push(planner.plan(512, 1024, 2048, cfg).unwrap());
        }
        for plan in planner.into_cache().plans() {
            merged.insert(plan.clone());
        }
    }
    merged.save(&path).unwrap();

    let reloaded = PlanCache::load(&path).unwrap();
    assert_eq!(reloaded.len(), expected.len());
    for plan in &expected {
        assert_eq!(
            reloaded.peek(&plan.key),
            Some(plan),
            "{}: loaded plan must be identical to the saved one",
            plan.key
        );
    }
    // Saving the reloaded cache reproduces the file byte for byte.
    assert_eq!(
        merged.to_json().unwrap(),
        reloaded.to_json().unwrap(),
        "serialization must be canonical"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn engine_reload_serves_plans_without_recomputation() {
    let path = tmp_path("engine-reload.json");
    let _ = std::fs::remove_file(&path);
    let cfg = NmConfig::new(2, 16, 32).unwrap();

    let backed = || SessionBuilder::new(rtx3090()).plan_cache(&path).build();
    let mut cold = backed().unwrap();
    let plan = cold.plan(2048, 4096, 4096, cfg).unwrap();
    assert!(cold.save().unwrap());

    let mut warm = backed().unwrap();
    let replay = warm.plan(2048, 4096, 4096, cfg).unwrap();
    let stats = warm.stats();
    assert_eq!(stats.hits, 1, "plan must come from the reloaded cache");
    assert_eq!(stats.misses, 0);
    assert_eq!(plan, replay);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_through_session_executes_and_caches() {
    let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
    let cfg = NmConfig::new(2, 16, 32).unwrap();
    let opts = SweepOptions {
        seq_len: 256,
        execute: ExecutePolicy::Scaled(64),
        seed: 11,
        decode: true,
    };
    let report = sweep_model(&mut session, &LLAMA_FAMILY[0], cfg, &opts).unwrap();
    assert_eq!(report.layers.len(), 5);
    for layer in &report.layers {
        assert!(layer.speedup() > 1.0, "{}", layer.layer);
        let exec = layer.exec.expect("execution requested");
        assert!(
            exec.oracle_vs_cpu_max_diff < 1e-2,
            "{}: sim and CPU disagree by {}",
            layer.layer,
            exec.oracle_vs_cpu_max_diff
        );
        // The decode lane planned every batch size and ran one real
        // m=1 step through the prepared SpMV path.
        assert_eq!(layer.decode.len(), 4, "{}", layer.layer);
        assert!(layer.decode.iter().all(|d| d.plan.key.shape.is_decode()));
        let diff = exec.decode_vs_cpu_max_diff.expect("decode step ran");
        assert!(
            diff < 1e-2,
            "{}: decode step and CPU disagree by {diff}",
            layer.layer
        );
    }
    // Second identical sweep: every plan is a cache hit.
    let again = sweep_model(&mut session, &LLAMA_FAMILY[0], cfg, &opts).unwrap();
    assert_eq!(again.cache_hits, 5);
    assert_eq!(again.cache_misses, 0);
}

#[test]
fn session_execution_matches_reference_on_every_backend() {
    let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
    for cfg in [
        NmConfig::new(8, 16, 32).unwrap(),
        NmConfig::new(2, 16, 32).unwrap(),
    ] {
        let a = MatrixF32::random(64, 192, 41);
        let b = MatrixF32::random(192, 96, 42);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let expect = spmm_reference(&a, &sb);
        let layer = session.load(sb.clone(), 64).unwrap();
        let run = layer.forward(&a).unwrap();
        assert!(
            run.c.allclose(&expect, 1e-3, 1e-4),
            "{cfg}: max diff {}",
            run.c.max_abs_diff(&expect)
        );
        assert!(run.wall_seconds > 0.0, "{cfg} must report wall time");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Planner::plan` is a pure function of its key: two fresh planners
    /// (no shared state) must produce identical plans for any valid
    /// problem, and any two shapes in the same padded class share one.
    #[test]
    fn planner_is_deterministic_for_a_fixed_key(
        m in 1usize..1500,
        n in 32usize..2048,
        k in 32usize..2048,
        level in 0usize..4,
        jitter in 0usize..32,
    ) {
        let cfg = NmConfig::paper_levels(32)[level];
        let dev = a100_80g();
        let a = Planner::new(dev.clone()).plan(m, n, k, cfg).unwrap();
        let b = Planner::new(dev.clone()).plan(m, n, k, cfg).unwrap();
        prop_assert_eq!(&a, &b, "fresh planners must agree");

        // A jittered shape that pads to the same class must share the key
        // (and therefore, by purity, the plan).
        let m2 = (m + jitter).min(m.div_ceil(32) * 32);
        let key_a = PlanKey::new(&dev, m, n, k, cfg);
        let key_b = PlanKey::new(&dev, m2, n, k, cfg);
        prop_assert_eq!(&key_a, &key_b, "same padded class, same key");
        let c = Planner::new(dev).plan(m2, n, k, cfg).unwrap();
        prop_assert_eq!(&a, &c);
    }
}
