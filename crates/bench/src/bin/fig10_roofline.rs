//! Regenerates **Fig. 10**: roofline analysis of NM-SpMM and nmSPARSE on
//! the NCU-locked A100 (measured CUDA-core peak 14.7 TFLOPS),
//! `m = n = k = 4096`, four sparsity levels.
//!
//! X-axis: block arithmetic intensity per paper Eq. (3) (element form, as
//! the paper plots it). Y-axis: simulated TFLOPS. The paper reports
//! NM-SpMM at 96/93/95/88% of peak and nmSPARSE at 64/63/49/73%.

use gpu_sim::device::a100_ncu_locked;
use gpu_sim::roofline::Roofline;
use nm_analysis::ai::BlockAi;
use nm_bench::{pct, TextTable};
use nm_kernels::params::BlockingParams;
use nm_kernels::{NmSparseKernel, NmSpmmKernel, NmVersion};
use nm_workloads::levels::{benchmark_levels, label};

fn main() {
    nm_bench::switches("usage: fig10_roofline", []);
    let dev = a100_ncu_locked();
    let roof = Roofline::from_device(&dev);
    let (m, n, k) = (4096, 4096, 4096);
    println!("== Fig. 10: roofline on {} ==", dev.name);
    println!(
        "peak {:.1} TFLOPS, DRAM {:.0} GB/s, ridge {:.1} FLOP/B\n",
        dev.peak_fp32_tflops(),
        dev.dram_bw / 1e9,
        roof.ridge()
    );

    println!("roof series (AI in FLOP/byte -> attainable TFLOPS):");
    for (ai, tf) in roof.roof_series(0.5, 64.0, 8) {
        print!("  ({ai:.2}, {tf:.1})");
    }
    println!("\n");

    let mut t = TextTable::new(&[
        "sparsity",
        "AI eq3 (ours)",
        "TFLOPS (ours)",
        "eff (ours)",
        "AI eq3 (nmSP)",
        "TFLOPS (nmSP)",
        "eff (nmSP)",
    ]);
    let kern = NmSpmmKernel::new(NmVersion::V3, BlockingParams::large());
    for cfg in benchmark_levels() {
        let plan = kern.plan(&dev, m, n, k, cfg).expect("plan");
        let b = plan.blocking;
        // Packed footprint raises the effective AI exactly as §IV-E argues.
        let a_eff = (b.ks as f64 * plan.decision.packing_ratio).round() as usize;
        let ai_ours = BlockAi {
            ms: b.params.ms,
            ns: b.params.ns,
            ks: b.ks,
            ws: b.ws,
        }
        .with_a_footprint(if plan.packing { a_eff } else { b.ks });
        let rep = kern.estimate(&dev, m, n, k, cfg, None).expect("ours");

        // nmSPARSE iterates one window at a time: ks = M, ws = N.
        let ai_nmsp = BlockAi {
            ms: 32,
            ns: 64,
            ks: cfg.m,
            ws: cfg.n,
        }
        .elements();
        let base = NmSparseKernel
            .estimate(&dev, m, n, k, cfg)
            .expect("nmsparse");

        t.row(&[
            label(&cfg),
            format!("{ai_ours:.1}"),
            format!("{:.1}", rep.tflops),
            pct(rep.efficiency),
            format!("{ai_nmsp:.1}"),
            format!("{:.1}", base.tflops),
            pct(base.efficiency),
        ]);
    }
    t.print();
    println!("\n(paper: NM-SpMM 96/93/95/88% of peak; nmSPARSE 64/63/49/73%)");
    println!("(paper observation: NM-SpMM's AI at 75% exceeds its AI at 62.5%");
    println!(" because smaller ws admits larger ks under the Eq. 4 budget)");
}
