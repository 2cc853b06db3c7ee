//! The codegen backend's acceptance matrix, end to end: for **every
//! kernel family × storage format × {prefill, decode(m=1)}** on ragged
//! shapes, the generated WGSL must pass the in-repo validator, the
//! shader interpreter must reproduce `cpu_v3` **bit for bit**, and the
//! interpreter's phase structure must equal the simulator's
//! [`ExecutionTrace`](nm_spmm::sim::ExecutionTrace) phase counts.
//!
//! Families V1–V3 are exercised by pinning the plan's kernel choice (the
//! family a non-decode plan lowers to); the skinny decode family comes
//! from decode-class plans, where the shape — not the choice — decides.

use nm_spmm::gpu::{validate_wgsl, KernelFamily, ValidateOptions};
use nm_spmm::kernels::codegen::{family_for_plan, CodegenBackend, CodegenPrepared};
use nm_spmm::kernels::plan::{KernelChoice, Plan, Planner, ShapeClass};
use nm_spmm::kernels::{BackendKind, CpuBackend, ExecBackend};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use std::sync::Arc;

/// Ragged `(k, n)` pairs: every dimension off the window depth, the
/// pruning-window width and the tile sizes.
const RAGGED: [(usize, usize); 3] = [(80, 100), (112, 72), (200, 144)];

/// Prefill row counts, one per shape — all above the decode band.
const PREFILL_ROWS: [usize; 3] = [9, 13, 33];

fn operand(cfg: NmConfig, k: usize, n: usize, seed: u64) -> Arc<NmSparseMatrix> {
    let b = MatrixF32::random(k, n, seed);
    Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune"))
}

/// The full three-part acceptance check for one `(plan, operand, rows)`
/// cell: validator, bit-identity against `cpu_v3`, phase parity against
/// the simulated trace.
fn check_cell(plan: &Plan, sb: &Arc<NmSparseMatrix>, m: usize, family: KernelFamily, seed: u64) {
    let dev = a100_80g();
    let a = MatrixF32::random(m, sb.k(), seed);
    let tag = format!(
        "{family} {} m={m} k={} n={}",
        plan.key.storage,
        sb.k(),
        sb.cols()
    );

    let backend = CodegenBackend::new();
    let state = backend.prepare(&dev, plan, sb).expect("prepare");
    let prep = state
        .as_any()
        .downcast_ref::<CodegenPrepared>()
        .expect("codegen state");
    assert_eq!(prep.spec().family, family, "{tag}: family");
    assert_eq!(prep.spec().storage, plan.key.storage, "{tag}: storage");

    // 1. The emitted shader is well-formed under the in-repo validator.
    validate_wgsl(prep.wgsl(), &ValidateOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: generated WGSL failed validation: {e}"));

    // 2. The interpreter reproduces the V3 CPU oracle bit for bit.
    let cpu = CpuBackend::new().run(&dev, plan, &a, sb).expect("cpu_v3");
    let (c, trace) = prep.execute(&a).expect("interpret");
    assert_eq!(
        c.as_slice(),
        cpu.c.as_slice(),
        "{tag}: interpreter must be bit-identical to cpu_v3"
    );

    // 3. The interpreter's phase structure equals the simulator's.
    let (ours, sim) = prep.phase_parity(&dev, &trace, m).expect("phase parity");
    assert!(
        ours.matches(&sim),
        "{tag}: interpreter phases {ours} vs simulated {sim}"
    );

    // And the backend's own run path reports the same numerics with the
    // simulated launch report attached.
    let run = backend
        .run_prepared(&dev, plan, &*state, &a)
        .expect("run_prepared");
    assert_eq!(run.c.as_slice(), c.as_slice(), "{tag}: run path");
    assert_eq!(run.backend, BackendKind::Codegen);
    assert!(
        run.stats.is_some() && run.report.is_some(),
        "{tag}: telemetry"
    );
}

/// A prefill plan whose kernel choice is pinned so the lowering takes a
/// specific ladder family.
fn prefill_plan_for(
    planner: &mut Planner,
    storage: StorageFormat,
    choice: KernelChoice,
    m: usize,
    n: usize,
    k: usize,
    cfg: NmConfig,
) -> Plan {
    let mut plan = planner
        .plan_stored(ShapeClass::Prefill, storage, m, n, k, cfg)
        .expect("plan");
    plan.choice = choice;
    plan
}

fn storages() -> [StorageFormat; 2] {
    [
        StorageFormat::RowMajor,
        StorageFormat::Sliced(SlicedLayout::new(4, 16).expect("layout")),
    ]
}

#[test]
fn ladder_families_pass_the_matrix_on_prefill_shapes() {
    let ladder = [
        (KernelChoice::NmV1, KernelFamily::V1),
        (KernelChoice::NmV2, KernelFamily::V2),
        (KernelChoice::NmV3, KernelFamily::V3),
    ];
    // One high-sparsity config (packed path) and one moderate (direct).
    let cfgs = [
        NmConfig::new(2, 8, 16).expect("2:8:16"),
        NmConfig::new(6, 16, 8).expect("6:16:8"),
    ];
    for (ci, cfg) in cfgs.into_iter().enumerate() {
        for storage in storages() {
            for (choice, family) in ladder {
                for (si, (k, n)) in RAGGED.into_iter().enumerate() {
                    let m = PREFILL_ROWS[si];
                    let seed = 9000 + (ci * 100 + si * 10) as u64;
                    let sb = operand(cfg, k, n, seed);
                    let mut planner = Planner::new(a100_80g());
                    let plan = prefill_plan_for(&mut planner, storage, choice, m, n, k, cfg);
                    assert_eq!(family_for_plan(&plan), family);
                    check_cell(&plan, &sb, m, family, seed ^ 0xa11);
                }
            }
        }
    }
}

#[test]
fn skinny_decode_family_passes_the_matrix_at_one_row() {
    let cfg = NmConfig::new(2, 8, 16).expect("2:8:16");
    for storage in storages() {
        for (si, (k, n)) in RAGGED.into_iter().enumerate() {
            let seed = 9500 + si as u64;
            let sb = operand(cfg, k, n, seed);
            let plan = Planner::new(a100_80g())
                .plan_stored(ShapeClass::Decode(1), storage, 1, n, k, cfg)
                .expect("decode plan");
            assert_eq!(family_for_plan(&plan), KernelFamily::SkinnyDecode);
            check_cell(&plan, &sb, 1, KernelFamily::SkinnyDecode, seed ^ 0xdec);
        }
    }
}
