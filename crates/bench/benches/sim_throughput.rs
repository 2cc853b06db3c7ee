//! Criterion benches of the simulator itself: how fast are analytic
//! estimates (they drive the 100-point × 3-device × 4-level Fig. 9 sweep).

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::device::a100_80g;
use nm_core::pattern::NmConfig;
use nm_kernels::{DenseGemmKernel, NmSpmmKernel, NmVersion};

fn bench_sim(c: &mut Criterion) {
    let dev = a100_80g();
    let cfg = NmConfig::new(2, 16, 32).expect("config");

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(20);

    group.bench_function("estimate_nm_v3_4096", |bench| {
        bench.iter(|| {
            NmSpmmKernel::auto(NmVersion::V3, 4096, 4096)
                .estimate(&dev, 4096, 4096, 4096, cfg, None)
                .expect("estimate")
        })
    });
    group.bench_function("estimate_dense_4096", |bench| {
        bench.iter(|| {
            DenseGemmKernel::auto(4096, 4096)
                .estimate(&dev, 4096, 4096, 4096)
                .expect("estimate")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
