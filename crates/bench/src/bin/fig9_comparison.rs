//! Regenerates **Fig. 9**: speedup over cuBLAS of NM-SpMM, nmSPARSE and
//! Sputnik on the 100-point Llama dataset, at the four benchmark sparsity
//! levels, on all three GPUs — plus the §IV-D aggregate claims
//! (NM-SpMM ≈ 2.1× nmSPARSE overall, 1.4×–6.3× over cuBLAS).
//!
//! All kernel selection goes through the unified [`Planner`]: one plan per
//! `(device, shape class, N:M)` key carries every family's estimate, and
//! repeated shapes (Llama's `mlp.gate`/`mlp.up` share weights shapes) are
//! cache hits rather than re-tunes — the per-device cache accounting is
//! printed after each table.
//!
//! Pass `--full` to print every data point; the default prints the
//! per-level summary and a 10-point sample of each series.

use gpu_sim::device::paper_devices;
use nm_bench::{geomean, spd, TextTable};
use nm_kernels::Planner;
use nm_workloads::levels::{benchmark_levels, label};
use nm_workloads::llama::dataset;

fn main() {
    let [full] = nm_bench::switches("usage: fig9_comparison [--full]", ["--full"]);
    let points = dataset();
    println!("== Fig. 9: speedup vs cuBLAS, 100 Llama data points ==\n");

    let mut all_vs_cublas: Vec<f64> = Vec::new();
    let mut all_vs_nmsparse: Vec<f64> = Vec::new();

    for dev in paper_devices() {
        println!("-- {} --", dev.name);
        let mut planner = Planner::new(dev.clone());
        let mut summary = TextTable::new(&[
            "sparsity", "ideal", "NM-SpMM", "nmSPARSE", "Sputnik", "NM/nmSP",
        ]);
        for cfg in benchmark_levels() {
            let mut ours = Vec::with_capacity(points.len());
            let mut nmsp = Vec::with_capacity(points.len());
            let mut sput = Vec::with_capacity(points.len());
            let mut series: Vec<(usize, f64, f64, f64)> = Vec::new();
            for p in &points {
                let (m, n, k) = (p.m, p.shape.n, p.shape.k);
                let plan = planner.plan(m, n, k, cfg).expect("plan");
                let e = &plan.estimates;
                let dense = e.dense.seconds;
                let nm = e.nm_v3.expect("nm-spmm estimate").seconds;
                let base = e.nmsparse.expect("nmsparse estimate").seconds;
                let sp = e.sputnik.seconds;
                ours.push(dense / nm);
                nmsp.push(dense / base);
                sput.push(dense / sp);
                series.push((p.index, dense / nm, dense / base, dense / sp));
            }
            let (g_ours, g_nmsp, g_sput) = (geomean(&ours), geomean(&nmsp), geomean(&sput));
            summary.row(&[
                label(&cfg),
                spd(cfg.ideal_speedup()),
                spd(g_ours),
                spd(g_nmsp),
                spd(g_sput),
                spd(g_ours / g_nmsp),
            ]);
            all_vs_cublas.push(g_ours);
            all_vs_nmsparse.push(g_ours / g_nmsp);

            let step = if full { 1 } else { 10 };
            if dev.name.starts_with("A100") {
                let mut t =
                    TextTable::new(&["pt", "m", "n", "k", "NM-SpMM", "nmSPARSE", "Sputnik"]);
                for (i, p) in points.iter().enumerate().step_by(step) {
                    let (idx, a, b, c) = series[i];
                    t.row(&[
                        idx.to_string(),
                        p.m.to_string(),
                        p.shape.n.to_string(),
                        p.shape.k.to_string(),
                        spd(a),
                        spd(b),
                        spd(c),
                    ]);
                }
                println!("  [{} sample of the series]", label(&cfg));
                for line in t.render().lines() {
                    println!("  {line}");
                }
            }
        }
        summary.print();
        println!("  plan cache: {}\n", planner.cache().stats());
    }

    println!("== §IV-D aggregates ==");
    println!(
        "NM-SpMM vs cuBLAS (geomean per level across devices): {} .. {}",
        spd(all_vs_cublas.iter().cloned().fold(f64::INFINITY, f64::min)),
        spd(all_vs_cublas.iter().cloned().fold(0.0, f64::max)),
    );
    println!(
        "NM-SpMM vs nmSPARSE overall: {}  (paper: 2.1x)",
        spd(geomean(&all_vs_nmsparse))
    );
}
