//! Sliced-storage parity: the SELL-C-σ staged format must be an
//! *invisible* rearrangement. Three claims are enforced end to end:
//!
//! 1. **Numerics** — a sliced-staged layer produces bit-for-bit the same
//!    output as a row-major one (same tiling, same micro-kernel) — both
//!    are layouts of one panel walk, row-major the `C = nb/L, σ = 1` one —
//!    on all workers and pinned to one, and both sit within oracle
//!    tolerance of the f64 reference, across every ISA this host can
//!    execute, every paper sparsity level, ragged shapes, and skinny and
//!    multi-panel row counts.
//! 2. **Permutation bookkeeping** — the window permutation and its
//!    inverse compose to the identity, and the per-window write-back
//!    spans tile the output columns exactly once.
//! 3. **Persistence** — the plan-cache format round-trips the storage
//!    lane through disk.

mod common;

use common::one_worker;
use nm_spmm::core::spmm::gemm_reference_f64;
use nm_spmm::kernels::cpu::{spmm_cpu_prepared, CpuPrepared, CpuTiling};
use nm_spmm::kernels::plan::Planner;
use nm_spmm::kernels::simd::MicroKernel;
use nm_spmm::kernels::{BackendKind, LoadSpec, NmVersion, PlanCache, SessionBuilder, ShapeClass};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use proptest::prelude::*;

/// Ragged (k, n) pairs: k off the window depth, n off the pruning-window
/// width, plus an exact multiple as the control.
const RAGGED: [(usize, usize); 3] = [(90, 49), (70, 64), (128, 96)];

/// Rows of the multi-panel input: more than the 4-row panels it runs on.
const MULTI_PANEL_ROWS: usize = 11;

/// The sliced grid the autotuner enumerates, plus a degenerate C = 1.
fn layouts() -> Vec<SlicedLayout> {
    [(1, 1), (4, 4), (8, 32), (32, 128)]
        .into_iter()
        .map(|(c, s)| SlicedLayout::new(c, s).unwrap())
        .collect()
}

#[test]
fn sliced_matches_row_major_bitwise_and_the_oracle_across_isas_versions_and_levels() {
    for mk in MicroKernel::available() {
        for (li, cfg) in NmConfig::paper_levels(16).into_iter().enumerate() {
            for (si, (k, n)) in RAGGED.into_iter().enumerate() {
                let seed = 7000 + (li * 16 + si) as u64;
                let b = MatrixF32::random(k, n, seed ^ 0x5e11);
                let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
                // Skinny rows (one decode panel), then 4-row panels
                // 4 + 4 + 3, so every rung of the ladder runs per layout.
                let skinny = 1 + si;
                check_layouts(
                    mk,
                    &sb,
                    skinny,
                    CpuTiling::auto(cfg, skinny, n, k).unwrap(),
                    seed,
                );
                let multi = CpuTiling::auto(cfg, MULTI_PANEL_ROWS, n, k).unwrap();
                check_layouts(
                    mk,
                    &sb,
                    MULTI_PANEL_ROWS,
                    CpuTiling { mb: 4, ..multi },
                    seed,
                );
            }
        }
    }
}

/// One `(kernel, operand, rows, tiling)` cell: the row-major output
/// pinned to one worker sits within tolerance of the f64 oracle, and
/// row-major and every sliced layout reproduce it bit for bit on all
/// workers.
fn check_layouts(mk: MicroKernel, sb: &NmSparseMatrix, m: usize, tiling: CpuTiling, seed: u64) {
    let (cfg, k, n) = (sb.cfg(), sb.k(), sb.cols());
    let a = MatrixF32::random(m, k, seed);
    let oracle = gemm_reference_f64(&a, &sb.decompress());
    let tag = format!("{mk} {cfg} m={m} k={k} n={n}");
    let rm = CpuPrepared::with_kernel(sb, tiling, mk).unwrap();
    let want = one_worker(|| spmm_cpu_prepared(&a, &rm)).unwrap();
    assert!(
        want.allclose(&oracle, 1e-3, 1e-4),
        "{tag}: row-major vs f64 oracle diff {}",
        want.max_abs_diff(&oracle)
    );
    let formats = layouts().into_iter().map(StorageFormat::Sliced);
    for format in std::iter::once(StorageFormat::RowMajor).chain(formats) {
        let prep = CpuPrepared::with_format(sb, tiling, mk, format).unwrap();
        let got = spmm_cpu_prepared(&a, &prep).unwrap();
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "{tag} {format}: bit-identical to row-major on one worker",
        );
    }
}

#[test]
fn permutation_and_inverse_round_trip_and_spans_tile_the_columns() {
    let cfg = NmConfig::new(2, 8, 16).unwrap();
    let b = MatrixF32::random(96, 49, 11);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
    for layout in layouts() {
        let sm = SlicedMatrix::build(&sb, layout).unwrap();
        let perm = &sm.perm().perm;
        let inv = sm.inverse();
        assert_eq!(perm.len(), sm.windows());
        for old in 0..sm.windows() {
            assert_eq!(
                perm[inv[old]], old,
                "C={} σ={}: inverse must undo the window permutation",
                layout.slice_height, layout.sort_window
            );
        }
        // Every output column is written exactly once: the spans at
        // permuted positions partition [0, n).
        let mut covered = vec![false; sm.cols()];
        for pos in 0..sm.windows() {
            let (col, width) = sm.span(pos);
            for (c, slot) in covered.iter_mut().enumerate().skip(col).take(width) {
                assert!(!*slot, "column {c} written twice");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "write-back spans leave a gap");
    }
}

#[test]
fn plan_cache_round_trips_the_storage_lane() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "nm-spmm-sliced-parity-cache-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let cfg = NmConfig::new(2, 8, 32).unwrap();
    let layout = SlicedLayout::new(4, 16).unwrap();
    let mut planner = Planner::new(a100_80g());
    let auto = planner.plan(4, 96, 128, cfg).unwrap();
    let pinned = planner
        .plan_stored(
            ShapeClass::Decode(4),
            StorageFormat::Sliced(layout),
            4,
            96,
            128,
            cfg,
        )
        .unwrap();
    assert_eq!(auto.key.storage, StorageFormat::RowMajor);
    assert_eq!(pinned.key.storage, StorageFormat::Sliced(layout));

    planner.cache().save(&path).unwrap();
    let reloaded = PlanCache::load(&path).unwrap();
    assert_eq!(
        reloaded.len(),
        2,
        "both storage lanes survive the disk trip"
    );
    assert_eq!(reloaded.peek(&auto.key), Some(&auto));
    assert_eq!(reloaded.peek(&pinned.key), Some(&pinned));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"storage\":\"sliced:4:16\""));
    assert!(
        text.contains("\"version\":6"),
        "saved at the current format"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: a session layer pinned to any sliced layout serves
    /// `forward_vec` bit-for-bit identically to the auto (row-major)
    /// layer pinned to one worker, for arbitrary ragged (k, n), every
    /// paper level and both pruning-window widths.
    #[test]
    fn forward_vec_is_bit_identical_across_storage_formats(
        k in 1usize..160,
        n in 1usize..96,
        level in 0usize..4,
        wide in 0usize..2,
        c_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let l = if wide == 1 { 32 } else { 16 };
        let cfg = NmConfig::paper_levels(l)[level];
        let c = [2usize, 4, 8][c_pick];
        let layout = SlicedLayout::new(c, 4 * c).unwrap();
        let b = MatrixF32::random(k, n, seed ^ 0x51ed);
        let sb = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).unwrap());
        let x: Vec<f32> = MatrixF32::random(1, k, seed).into_vec();
        let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
        let cpu = BackendKind::Cpu(NmVersion::V3);
        let auto = session
            .load_with(sb.clone(), LoadSpec::rows(1).backend(cpu))
            .unwrap();
        let sliced = session
            .load_with(
                sb.clone(),
                LoadSpec::rows(1)
                    .backend(cpu)
                    .storage(StorageFormat::Sliced(layout)),
            )
            .unwrap();
        prop_assert_eq!(
            sliced.storage(),
            Some(StorageFormat::Sliced(layout)),
            "the pin must reach the staged state"
        );
        let want = one_worker(|| auto.forward_vec(&x)).unwrap();
        let got = sliced.forward_vec(&x).unwrap();
        prop_assert_eq!(got.c.as_slice(), want.c.as_slice());
    }
}
