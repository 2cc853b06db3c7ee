//! The prepared-session API's contract, proven end to end:
//!
//! * **prepare-once** — the offline staging probe shows that repeated
//!   `forward` calls on one [`PreparedLayer`] perform zero re-preparation,
//! * **plan-cache accounting** — loads through one [`Session`] share
//!   plans per shape class and the counters prove it,
//! * **concurrency** — `PreparedLayer: Send + Sync`, so one prepared
//!   handle serves concurrent callers producing identical results.

mod common;

use common::one_worker;
use nm_spmm::core::spmm::spmm_reference;
use nm_spmm::kernels::cpu::offline_staging_passes;
use nm_spmm::kernels::{BackendKind, NmVersion, PreparedLayer, Session, SessionBuilder};
use nm_spmm::prelude::*;

fn session() -> Session {
    SessionBuilder::new(a100_80g()).build().unwrap()
}

fn prune(k: usize, n: usize, cfg: NmConfig, seed: u64) -> NmSparseMatrix {
    NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, seed), cfg).unwrap()
}

/// The acceptance-criterion proof: after `load`, the staging counter on
/// this thread never moves again, however many forwards run — on the
/// packed (high-sparsity) class whose `col_info` pre-processing is the
/// paper's headline offline cost, on all workers and pinned to one.
#[test]
fn repeated_forward_performs_zero_re_preparation() {
    let mut s = session();
    let cfg = NmConfig::new(2, 8, 32).unwrap(); // 75%: the packed path
    let sb = prune(256, 128, cfg, 1);
    let a0 = MatrixF32::random(64, 256, 2);
    let expect = spmm_reference(&a0, &sb);

    let before_load = offline_staging_passes();
    let layer = s.load(sb.clone(), 64).unwrap();
    assert_eq!(
        offline_staging_passes(),
        before_load + 1,
        "load must stage exactly once"
    );

    let staged = offline_staging_passes();
    for round in 0..4 {
        // Varying operands, same handle: the online path only.
        let a = if round == 0 {
            a0.clone()
        } else {
            MatrixF32::random(64, 256, 10 + round)
        };
        let run = layer.forward(&a).unwrap();
        let serial = one_worker(|| layer.forward(&a)).unwrap();
        assert_eq!(run.c.as_slice(), serial.c.as_slice(), "round {round}");
        if round == 0 {
            assert!(
                run.c.allclose(&expect, 1e-3, 1e-4),
                "max diff {}",
                run.c.max_abs_diff(&expect)
            );
        }
    }
    assert_eq!(
        offline_staging_passes(),
        staged,
        "eight forwards must not re-stage anything"
    );
}

/// The CPU runs one kernel: asking a session for the paper's V1/V2 steps
/// on the CPU is a structured error at build, never a run.
#[test]
fn cpu_ladder_steps_are_structured_errors_not_runs() {
    for v in [NmVersion::V1, NmVersion::V2] {
        let staged = offline_staging_passes();
        let built = SessionBuilder::new(a100_80g()).backend(BackendKind::Cpu(v));
        let result = built.build().map(|_| ());
        let unsupported = matches!(result, Err(NmError::Unsupported { .. }));
        assert!(unsupported, "{v:?}: {result:?}");
        assert_eq!(offline_staging_passes(), staged, "{v:?}: nothing staged");
    }
}

#[test]
fn default_session_loads_an_l64_layer_at_decode_rows() {
    // Table I's small preset has ns = 32, which holds no whole L = 64
    // window; a decode load widens it to lcm(ns, L) instead of refusing
    // the layer with InvalidBlocking.
    let mut s = session();
    let cfg = NmConfig::new(4, 8, 64).unwrap();
    let sb = prune(512, 640, cfg, 41);
    for rows in [1, 2, 3, 8] {
        let layer = s.load(sb.clone(), rows).unwrap();
        assert_eq!(layer.plan().params.ns % 64, 0, "rows = {rows}");
        let a = MatrixF32::random(rows, 512, 42 + rows as u64);
        let run = layer.forward(&a).unwrap();
        assert!(
            run.c.allclose(&spmm_reference(&a, &sb), 1e-3, 1e-4),
            "rows = {rows}"
        );
        let y = layer.forward_vec(a.row(0)).unwrap();
        assert_eq!(y.c.as_slice(), run.c.row(0), "rows = {rows}");
    }
}

#[test]
fn session_counts_plan_cache_hits_across_loads() {
    let mut s = session();
    let cfg = NmConfig::new(2, 16, 32).unwrap();
    // Same shape class three times (the third via load_model), one
    // distinct shape: 2 misses, 3 hits in total.
    s.load(prune(128, 96, cfg, 1), 64).unwrap();
    s.load(prune(128, 96, cfg, 2), 64).unwrap();
    let st = s.stats();
    assert_eq!((st.entries, st.hits, st.misses), (1, 1, 1));

    let model = s
        .load_model(vec![prune(128, 96, cfg, 3), prune(96, 64, cfg, 4)], 64)
        .unwrap();
    assert_eq!((model.cache_hits(), model.cache_misses()), (1, 1));
    let st = s.stats();
    assert_eq!((st.entries, st.hits, st.misses), (2, 2, 2));

    // Planning directly shares the same cache the loads populated.
    s.plan(64, 96, 128, cfg).unwrap();
    assert_eq!(s.stats().hits, 3);
}

/// `PreparedLayer: Send + Sync` — one prepared layer serves concurrent
/// callers from plain `&` references, each computing the right answer.
#[test]
fn one_prepared_layer_serves_concurrent_callers() {
    fn assert_send_sync<T: Send + Sync>(_: &T) {}

    let mut s = session();
    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let sb = prune(192, 96, cfg, 5);
    let layer = s.load(sb.clone(), 32).unwrap();
    assert_send_sync(&layer);

    let layer_ref: &PreparedLayer = &layer;
    let results: Vec<(u64, MatrixF32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|seed| {
                scope.spawn(move || {
                    let a = MatrixF32::random(32, 192, 100 + seed);
                    let run = layer_ref.forward(&a).unwrap();
                    (seed, run.c)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results.len(), 4);
    for (seed, c) in results {
        let a = MatrixF32::random(32, 192, 100 + seed);
        let expect = spmm_reference(&a, &sb);
        assert!(
            c.allclose(&expect, 1e-3, 1e-4),
            "thread with seed {seed} disagrees: max diff {}",
            c.max_abs_diff(&expect)
        );
    }
}
