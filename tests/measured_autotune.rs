//! The measured-autotune contract, proven end to end through the public
//! session API:
//!
//! * **measure-once** — the measurement-pass probe shows that a second
//!   `Session::load` of the same shape re-measures nothing (the evidence
//!   is a counted plan-cache hit), both within one session and across
//!   file-backed sessions sharing a cache path,
//! * **evidence-carrying plans** — the prepared layer's plan records
//!   `Measured` provenance and the winning tiling/storage format,
//! * **numerics** — as a property over arbitrary shapes, configurations
//!   and seeds, a measured plan's forward pass agrees with the scalar
//!   reference exactly as tightly as the cost-model plan's does,
//! * **robustness** — a plan cache whose measured tiling was doctored
//!   ends in correct output or a structured error, never an abort.

use nm_spmm::core::sliced::StorageFormat;
use nm_spmm::core::spmm::spmm_reference;
use nm_spmm::kernels::measure::measurement_passes;
use nm_spmm::kernels::plan::Provenance;
use nm_spmm::kernels::{AutotuneMode, BackendKind, LoadSpec, Session, SessionBuilder};
use nm_spmm::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nm-spmm-measured-{}-{name}", std::process::id()));
    p
}

fn quick_session() -> Session {
    SessionBuilder::new(a100_80g())
        .autotune(AutotuneMode::Quick)
        .build()
        .unwrap()
}

fn prune(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
    NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, seed), cfg).unwrap()
}

/// The acceptance-criterion proof: loading the same shape twice measures
/// once. The second load is a plan-cache hit on the host-scoped key, and
/// the measurement-pass counter — not just the cache accounting — shows
/// zero re-measurement.
#[test]
fn second_load_of_the_same_shape_re_measures_nothing() {
    let mut s = quick_session();
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let sb = prune(256, 128, cfg, 11);
    let a = MatrixF32::random(64, 256, 12);
    let expect = spmm_reference(&a, &sb);

    let before = measurement_passes();
    let first = s.load(sb.clone(), 64).unwrap();
    assert_eq!(
        measurement_passes(),
        before + 1,
        "a cold measured load runs exactly one measurement pass"
    );
    assert_eq!(first.plan().provenance, Provenance::Measured);
    let evidence = first
        .plan()
        .measured
        .expect("measured plan carries evidence");
    assert!(evidence.samples > 0);
    assert!(evidence.gflops > 0.0);
    assert!(
        first.plan().key.host.is_some(),
        "measured plans must be keyed to the host that produced the evidence"
    );

    let after_first = measurement_passes();
    let second = s.load(sb.clone(), 64).unwrap();
    assert_eq!(
        measurement_passes(),
        after_first,
        "a warm measured load must re-measure nothing"
    );
    assert_eq!(first.plan(), second.plan(), "both loads share one plan");

    // Both handles compute the same (correct) result.
    for layer in [&first, &second] {
        let run = layer.forward(&a).unwrap();
        assert!(
            run.c.allclose(&expect, 1e-3, 1e-4),
            "max diff {}",
            run.c.max_abs_diff(&expect)
        );
    }
}

/// Measured evidence survives the process boundary: a second session
/// opened on the same cache file replays the persisted winner instead of
/// re-benchmarking, and a session with autotuning off never measures.
#[test]
fn measured_evidence_persists_across_file_backed_sessions() {
    let path = tmp_path("evidence.json");
    let _ = std::fs::remove_file(&path);
    let cfg = NmConfig::new(2, 16, 32).unwrap();
    let sb = prune(256, 96, cfg, 21);

    let chosen = {
        let mut s = SessionBuilder::new(a100_80g())
            .autotune(AutotuneMode::Quick)
            .plan_cache(&path)
            .build()
            .unwrap();
        let before = measurement_passes();
        let layer = s.load(sb.clone(), 32).unwrap();
        assert_eq!(measurement_passes(), before + 1);
        layer.plan().measured.expect("evidence")
    };

    // Same host, same cache file: the evidence replays, nothing re-runs.
    let mut s2 = SessionBuilder::new(a100_80g())
        .autotune(AutotuneMode::Quick)
        .plan_cache(&path)
        .build()
        .unwrap();
    let before = measurement_passes();
    let layer = s2.load(sb.clone(), 32).unwrap();
    assert_eq!(
        measurement_passes(),
        before,
        "persisted evidence must be replayed, not re-measured"
    );
    assert_eq!(layer.plan().provenance, Provenance::Measured);
    assert_eq!(
        layer.plan().measured,
        Some(chosen),
        "the replayed winner is the persisted one"
    );

    // Autotune off on the same cache: the measured path never engages —
    // `load` prepares the cost-model default and measures nothing.
    let mut s3 = SessionBuilder::new(a100_80g())
        .autotune(AutotuneMode::Off)
        .plan_cache(&path)
        .build()
        .unwrap();
    let before = measurement_passes();
    let layer = s3.load(sb, 32).unwrap();
    assert_eq!(measurement_passes(), before);
    assert_eq!(layer.plan().provenance, Provenance::CostModel);

    let _ = std::fs::remove_file(&path);
}

/// A hand-edited cache can carry tile sizes far beyond any call's rows:
/// a general tile of 2^40 rows (its scratch would be a 128 TiB
/// allocation) and a panel of 2^52 rows (`mb × n` wraps to 0 at
/// n = 4096); a measured plan handed to the codegen backend can carry a
/// panel of 2^60 rows (its profile's `mb`-sized products overflow).
/// Each must end in correct output or a structured error — never an
/// abort or a panic.
#[test]
fn doctored_measured_tilings_end_in_output_or_a_structured_error() {
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let sb = prune(64, 4096, cfg, 31);
    let a = MatrixF32::random(16, 64, 32);
    let expect = spmm_reference(&a, &sb);
    let session = |path: &PathBuf| {
        SessionBuilder::new(a100_80g())
            .autotune(AutotuneMode::Quick)
            .storage(StorageFormat::RowMajor)
            .plan_cache(path)
            .build()
    };
    for (mb, mt) in [(None, Some(1usize << 40)), (Some(1 << 52), None)] {
        let path = tmp_path(&format!("doctored-{mb:?}-{mt:?}.json"));
        let _ = std::fs::remove_file(&path);
        let layer = session(&path).unwrap().load(sb.clone(), 16).unwrap();
        let t = layer.plan().measured.expect("evidence").cpu_tiling;
        let (mb, mt) = (mb.unwrap_or(t.mb), mt.unwrap_or(t.mt));
        let entry = |mb, mt| format!("{{\"mb\":{mb},\"nb\":{},\"kb\":{},\"mt\":{mt},", t.nb, t.kb);
        let doc = std::fs::read_to_string(&path).unwrap();
        let doctored = doc.replace(&entry(t.mb, t.mt), &entry(mb, mt));
        assert_ne!(doc, doctored, "the surgery must hit the measured entry");
        std::fs::write(&path, doctored).unwrap();

        let before = measurement_passes();
        let loaded = session(&path).and_then(|mut s| s.load(sb.clone(), 16));
        let _ = std::fs::remove_file(&path);
        // Rejecting the entry with a structured error is an accepted end.
        let Ok(layer) = loaded else { continue };
        assert_eq!(measurement_passes(), before, "the doctored entry replays");
        let t = layer.plan().measured.expect("evidence").cpu_tiling;
        assert_eq!((t.mb, t.mt), (mb, mt));
        if let Ok(run) = layer.forward(&a) {
            assert!(run.c.allclose(&expect, 1e-3, 1e-4), "mb {mb}, mt {mt}");
        }
    }

    // The cache's JSON holds integers only up to 2^53, so a 2^60-row panel
    // reaches the codegen backend as a doctored plan handed to the loader.
    let path = tmp_path("doctored-codegen.json");
    let _ = std::fs::remove_file(&path);
    let mut s = session(&path).unwrap();
    let mut plan = s.load(sb.clone(), 16).unwrap().plan().clone();
    let _ = std::fs::remove_file(&path);
    plan.measured.as_mut().expect("evidence").cpu_tiling.mb = 1 << 60;
    let spec = LoadSpec::rows(16)
        .planned(plan)
        .backend(BackendKind::Codegen);
    if let Ok(layer) = s.load_with(sb.clone(), spec) {
        if let Ok(run) = layer.forward(&a) {
            assert!(run.c.allclose(&expect, 1e-3, 1e-4), "codegen, mb 2^60");
        }
    }
}

/// Small valid (N, M, L=32) configurations the CPU ladder's packed and
/// unpacked paths both see.
fn arb_cfg() -> impl Strategy<Value = NmConfig> {
    prop_oneof![
        Just(NmConfig::new(8, 16, 32).unwrap()), // 50%: unpacked path
        Just(NmConfig::new(2, 8, 32).unwrap()),  // 75%: packed path
        Just(NmConfig::new(2, 16, 32).unwrap()), // 87.5%: packed path
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary shapes and seeds, the plan the measurement picks —
    /// whatever tiling and storage format wins on this host — computes
    /// the same matrix as the scalar reference.
    #[test]
    fn measured_plans_match_the_reference(
        cfg in arb_cfg(),
        rows in 1usize..40,
        n_blocks in 1usize..4,
        k_blocks in 2usize..5,
        seed in 0u64..1000,
    ) {
        let n = n_blocks * 32;
        let k = k_blocks * 32;
        let sb = prune(k, n, cfg, seed);
        let a = MatrixF32::random(rows, k, seed ^ 0xab);
        let expect = spmm_reference(&a, &sb);

        let mut s = quick_session();
        let layer = s.load(sb, rows).unwrap();
        prop_assert_eq!(layer.plan().provenance, Provenance::Measured);
        let run = layer.forward(&a).unwrap();
        prop_assert!(
            run.c.allclose(&expect, 1e-3, 1e-4),
            "measured plan diverges from reference: max diff {}",
            run.c.max_abs_diff(&expect)
        );
    }
}
