//! Wall-clock criterion benches of the native CPU V1→V3 ladder: prepared
//! layers timed through `PreparedLayer::forward`, sparse against the same
//! ladder at N = M (every vector of B kept) as the dense baseline — the
//! honest-hardware counterpart of the paper's Fig. 9 speedup claim: time
//! falls as sparsity rises, approaching the `M/N` bound.
//!
//! Shape: a quarter-scale Llama-7B attention projection (m=256, n=1024,
//! k=1024) so a full criterion run finishes in minutes. A second group
//! times one prompt pass through a Llama-7B-width FFN gate, and a third
//! times decode (m=1) on Llama-width weights streamed from DRAM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::device::a100_80g;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use nm_kernels::{BackendKind, NmVersion, PreparedLayer, Session, SessionBuilder};
use std::sync::Arc;

const M: usize = 256;
const N: usize = 1024;
const K: usize = 1024;

/// The prefill arm's prompt rows: a 256-token prompt pass.
const PREFILL_M: usize = 256;

/// The decode arm's projection, a Llama-7B-width FFN gate at half depth:
/// 2048×5504 at 2:8 stages 11 MiB of `B′`, which V3 splits across
/// column ranges, one per worker.
const DECODE_K: usize = 2048;
const DECODE_N: usize = 5504;
/// Prepared copies of that layer the arm cycles through: 352 MiB of
/// staged `B′`, more than the last-level cache of common server parts, so
/// each call streams its weights from DRAM as a decode step through a
/// model stack does.
const DECODE_COPIES: usize = 32;

fn load(session: &mut Session, b: &MatrixF32, cfg: NmConfig, version: NmVersion) -> PreparedLayer {
    let sb = NmSparseMatrix::prune_magnitude(b, cfg).expect("prune");
    session
        .load_on(sb, M, BackendKind::Cpu(version))
        .expect("load layer")
}

fn bench_cpu_spmm(c: &mut Criterion) {
    let a = MatrixF32::random(M, K, 1);
    let b = MatrixF32::random(K, N, 2);
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");

    let mut group = c.benchmark_group("cpu_spmm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((M * N * K) as u64));

    let dense = load(&mut session, &b, NmConfig::dense32(32), NmVersion::V3);
    group.bench_function("dense_ladder_v3", |bench| {
        bench.iter(|| dense.forward(&a).expect("forward"))
    });

    for (label, n_keep) in [("50.0%", 8usize), ("62.5%", 6), ("75.0%", 4), ("87.5%", 2)] {
        let cfg = NmConfig::new(n_keep, 16, 32).expect("config");
        let layer = load(&mut session, &b, cfg, NmVersion::V3);
        group.bench_with_input(
            BenchmarkId::new("nm_spmm_v3", label),
            &layer,
            |bench, layer| bench.iter(|| layer.forward(&a).expect("forward")),
        );
    }

    // What V3 still adds on the CPU at high sparsity: both steps gather A
    // in place, V1 walks the row panels sequentially, V3 in parallel.
    let cfg = NmConfig::new(2, 16, 32).expect("config");
    for (label, version) in [
        ("v1-sequential", NmVersion::V1),
        ("v3-row-panels", NmVersion::V3),
    ] {
        let layer = load(&mut session, &b, cfg, version);
        group.bench_with_input(
            BenchmarkId::new("nm_spmm_87.5%", label),
            &layer,
            |bench, layer| bench.iter(|| layer.forward(&a).expect("forward")),
        );
    }
    group.finish();
}

/// One 256-row prompt pass through the 2048×5504 2:8 gate projection at
/// its cost-model tiling (the register tile from the ISA, the row panel
/// from the host's L2) — the kernel the end-to-end prefill pass spends
/// most of its time in.
fn bench_prefill(c: &mut Criterion) {
    let cfg = NmConfig::new(2, 8, 32).expect("config");
    let b = MatrixF32::random(DECODE_K, DECODE_N, 5);
    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune");
    let a = MatrixF32::random(PREFILL_M, DECODE_K, 6);
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let layer = session
        .load_on(sb, PREFILL_M, BackendKind::Cpu(NmVersion::V3))
        .expect("load layer");

    let mut group = c.benchmark_group("cpu_spmm_prefill");
    group.sample_size(10);
    group.throughput(Throughput::Elements(
        (PREFILL_M * DECODE_N * DECODE_K) as u64,
    ));
    group.bench_function("prefill_v3/256x2048x5504_75.0%", |bench| {
        bench.iter(|| layer.forward(&a).expect("forward"))
    });
    group.finish();
}

/// Decode (m = 1): V1 runs each call on one thread; V3 splits it across
/// column blocks, one range per worker. Each sample is one call on the
/// next copy of the round robin.
fn bench_decode(c: &mut Criterion) {
    let cfg = NmConfig::new(2, 8, 32).expect("config");
    let b = MatrixF32::random(DECODE_K, DECODE_N, 4);
    let weights = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune"));
    let x = MatrixF32::random(1, DECODE_K, 3);
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");

    let mut group = c.benchmark_group("cpu_spmm_decode");
    group.sample_size(2 * DECODE_COPIES);
    let staged_bytes = weights.w() * DECODE_N * std::mem::size_of::<f32>();
    group.throughput(Throughput::Bytes(staged_bytes as u64));
    for (label, version) in [
        ("v1-one-thread", NmVersion::V1),
        ("v3-column-split", NmVersion::V3),
    ] {
        // Every load stages its own copy of `B′`; one version's copies at
        // a time bounds the footprint.
        let layers: Vec<PreparedLayer> = (0..DECODE_COPIES)
            .map(|_| {
                session
                    .load_on(weights.clone(), 1, BackendKind::Cpu(version))
                    .expect("load layer")
            })
            .collect();
        let mut next = 0;
        group.bench_with_input(
            BenchmarkId::new("m1_2048x5504_75.0%", label),
            &layers,
            |bench, layers| {
                bench.iter(|| {
                    next = (next + 1) % layers.len();
                    layers[next].forward(&x).expect("forward")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cpu_spmm, bench_prefill, bench_decode);
criterion_main!(benches);
