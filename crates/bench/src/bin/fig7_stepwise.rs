//! Regenerates **Fig. 7**: step-wise optimization evaluation of NM-SpMM
//! (V1 → V2 → V3) against cuBLAS, on A100 / RTX 3090 / RTX 4090, with
//! `m = n = k = 4096` and sparsity ∈ {0%, 50%, 62.5%, 75%, 87.5%}.
//!
//! The paper's Fig. 7 y-axis is *efficiency*: achieved useful TFLOPS over
//! device peak. At 0% the NM kernel runs with `N = M = 32` and cuBLAS's
//! dense GEMM is shown alongside.

use gpu_sim::device::paper_devices;
use nm_bench::{pct, TextTable};
use nm_kernels::params::BlockingParams;
use nm_kernels::{DenseGemmKernel, NmSpmmKernel, NmVersion};
use nm_workloads::levels::{label, with_dense_control};

fn main() {
    nm_bench::switches("usage: fig7_stepwise", []);
    let (m, n, k) = (4096, 4096, 4096);
    println!("== Fig. 7: step-wise optimization (m = n = k = {m}) ==\n");

    for dev in paper_devices() {
        println!(
            "-- {} (peak {:.1} TFLOPS FP32) --",
            dev.name,
            dev.peak_fp32_tflops()
        );
        let mut t = TextTable::new(&["sparsity", "V1", "V2", "V3", "cuBLAS", "V3 bound"]);
        let dense = DenseGemmKernel::new(BlockingParams::large())
            .estimate(&dev, m, n, k)
            .expect("dense estimate");

        for cfg in with_dense_control() {
            let mut cells: Vec<String> = vec![label(&cfg)];
            let mut v3_bound = String::new();
            for v in [NmVersion::V1, NmVersion::V2, NmVersion::V3] {
                let rep = NmSpmmKernel::new(v, BlockingParams::large())
                    .estimate(&dev, m, n, k, cfg, None)
                    .expect("estimate");
                cells.push(pct(rep.efficiency));
                if v == NmVersion::V3 {
                    v3_bound = format!("{:?}", rep.bound);
                }
            }
            // cuBLAS appears only at 0% in the paper's figure.
            cells.push(if cfg.sparsity() == 0.0 {
                pct(dense.efficiency)
            } else {
                "-".into()
            });
            cells.push(v3_bound);
            t.row(&cells);
        }
        t.print();
        println!();
    }
    println!("(expected shape: V1 ≈ V3 at ≤62.5%; V2/V3 pull ahead at ≥75%;");
    println!(" NM-SpMM at 0% within a few points of cuBLAS on A100, below it on 3090/4090)");
}
