//! Wall-clock criterion benches of the native CPU V1→V3 ladder: prepared
//! layers timed through `PreparedLayer::forward`, sparse against the same
//! ladder at N = M (every vector of B kept) as the dense baseline — the
//! honest-hardware counterpart of the paper's Fig. 9 speedup claim: time
//! falls as sparsity rises, approaching the `M/N` bound.
//!
//! Shape: a quarter-scale Llama-7B attention projection (m=256, n=1024,
//! k=1024) so a full criterion run finishes in minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::device::a100_80g;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use nm_kernels::{BackendKind, NmVersion, PreparedLayer, Session, SessionBuilder};

const M: usize = 256;
const N: usize = 1024;
const K: usize = 1024;

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

criterion_group!(benches, bench_cpu_spmm);
criterion_main!(benches);
