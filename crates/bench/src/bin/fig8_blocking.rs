//! Regenerates **Fig. 8**: efficiency of the small/medium/large kernels on
//! the Table II shapes A–F across the five sparsity levels, on the A100,
//! with cuBLAS shown at 0%.
//!
//! The claim under test: "kernels optimized for matrices with specific
//! characteristics consistently achieve the best performance for those
//! cases" — small shapes prefer the small kernel, large shapes the large
//! kernel.

use gpu_sim::device::a100_80g;
use nm_bench::{pct, TextTable};
use nm_kernels::params::BlockingParams;
use nm_kernels::{DenseGemmKernel, NmSpmmKernel, NmVersion};
use nm_workloads::levels::{label, with_dense_control};
use nm_workloads::shapes::table_ii;

fn main() {
    nm_bench::switches("usage: fig8_blocking", []);
    let dev = a100_80g();
    println!(
        "== Fig. 8: blocking-parameter kernels on Table II shapes ({}) ==\n",
        dev.name
    );

    let mut mismatches = 0usize;
    for cfg in with_dense_control() {
        println!("-- sparsity {} --", label(&cfg));
        let mut t = TextTable::new(&[
            "shape", "m", "n", "k", "small", "medium", "large", "best", "expected", "cuBLAS",
        ]);
        for shape in table_ii() {
            let mut effs = Vec::new();
            for (_, params) in BlockingParams::table_i() {
                let rep = NmSpmmKernel::new(NmVersion::V3, params)
                    .estimate(&dev, shape.m, shape.n, shape.k, cfg, None)
                    .expect("estimate");
                effs.push(rep.efficiency);
            }
            let best = ["small", "medium", "large"][effs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0];
            let expected = shape.size_class();
            if best != expected {
                mismatches += 1;
            }
            let cublas = if cfg.sparsity() == 0.0 {
                pct(DenseGemmKernel::auto(shape.m, shape.n)
                    .estimate(&dev, shape.m, shape.n, shape.k)
                    .expect("dense")
                    .efficiency)
            } else {
                "-".to_string()
            };
            t.row(&[
                shape.label.to_string(),
                shape.m.to_string(),
                shape.n.to_string(),
                shape.k.to_string(),
                pct(effs[0]),
                pct(effs[1]),
                pct(effs[2]),
                best.to_string(),
                expected.to_string(),
                cublas,
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "size-class matches: {}/{} (paper claim: the matching kernel consistently wins)",
        5 * 6 - mismatches,
        5 * 6
    );
}
