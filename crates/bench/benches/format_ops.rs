//! Criterion benches of the format operations: pruning/compression,
//! decompression, the offline packing pre-processing (Fig. 4), index
//! bit-packing and loading a serialized layer — the deployment-time costs
//! the paper's §III-C1 calls "offline" and therefore amortized.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nm_core::colinfo::preprocess;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::prune::PrunePolicy;
use nm_core::serialize::{from_bytes, to_bytes};
use nm_core::sparse::NmSparseMatrix;

const K: usize = 2048;
const N: usize = 2048;

fn bench_format(c: &mut Criterion) {
    let b = MatrixF32::random(K, N, 3);
    let cfg = NmConfig::new(2, 16, 32).expect("config");

    let mut group = c.benchmark_group("format_ops");
    group.sample_size(10);
    group.throughput(Throughput::Bytes((K * N * 4) as u64));

    for (label, policy) in [
        ("magnitude", PrunePolicy::Magnitude),
        ("random", PrunePolicy::Random { seed: 1 }),
        ("strided", PrunePolicy::Strided),
    ] {
        group.bench_with_input(
            BenchmarkId::new("prune_compress", label),
            &policy,
            |bench, p| bench.iter(|| NmSparseMatrix::prune(&b, cfg, *p).expect("prune")),
        );
    }

    let sb = NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune");
    group.bench_function("decompress", |bench| bench.iter(|| sb.decompress()));
    group.bench_function("offline_preprocess_colinfo", |bench| {
        bench.iter(|| preprocess(&sb, 256, 128).expect("preprocess"))
    });
    group.bench_function("index_bit_pack", |bench| {
        bench.iter(|| sb.indices().bit_pack(cfg))
    });

    // One half-Llama-7B gate layer (2048 × 5504 at 2:8, L = 32), loaded from
    // its serialized blob; throughput counts the blob's bytes.
    let gate = NmSparseMatrix::prune_magnitude(
        &MatrixF32::random(2048, 5504, 4),
        NmConfig::new(2, 8, 32).expect("config"),
    )
    .expect("prune");
    let blob = to_bytes(&gate);
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("deserialize", |bench| {
        bench.iter(|| from_bytes(&blob).expect("deserialize"))
    });

    // A q/k/v/o projection (2048 × 2048 at 4:8), and a ragged layer: k = 2049
    // leaves one real row in the last pruning window, so every window column
    // keeps a padded-tail span that the load zeroes; n = 2050 leaves a
    // 2-wide last window.
    for (label, (k, n), (nk, m)) in [
        ("qkvo_4:8_2048x2048", (2048, 2048), (4, 8)),
        ("ragged_2:8_2049x2050", (2049, 2050), (2, 8)),
    ] {
        let cfg = NmConfig::new(nk, m, 32).expect("config");
        let layer =
            NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, 5), cfg).expect("prune");
        let blob = to_bytes(&layer);
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_with_input(BenchmarkId::new("deserialize", label), &blob, |bench, b| {
            bench.iter(|| from_bytes(b).expect("deserialize"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_format);
criterion_main!(benches);
