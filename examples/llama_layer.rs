//! Prune one Llama-7B linear layer and compare serving cost across sparsity
//! levels — the paper's motivating workload (§IV-A).
//!
//! Per sparsity level, the layer is loaded into the session **once**
//! (offline: plan + stage + pack) and the printed CPU wall time is the
//! online `forward` cost only — the amortized per-call number a serving
//! system actually pays. Alongside: simulated A100 latency, speedups
//! against the dense baselines, and the accuracy cost of the
//! approximation.
//!
//! ```sh
//! cargo run --release --example llama_layer
//! ```

use nm_spmm::core::confusion::total_confusion;
use nm_spmm::core::spmm::gemm_reference_f64;
use nm_spmm::prelude::*;
use nm_spmm::workloads::levels::{benchmark_levels, label};
use nm_spmm::workloads::llama::layer_shapes;

fn main() {
    // Llama-7B mlp.gate: n = 11008, k = 4096 — scaled down 4x per axis so
    // the example finishes in seconds on a laptop while keeping the aspect
    // ratio; pass --full for the real layer.
    let full = std::env::args().any(|a| a == "--full");
    let shape = layer_shapes()
        .into_iter()
        .find(|s| s.model == "Llama-7B" && s.layer == "mlp.gate")
        .expect("known layer");
    let scale = if full { 1 } else { 4 };
    let (m, n, k) = (512 / scale * scale.min(2), shape.n / scale, shape.k / scale);
    println!(
        "layer {} {} -> m={m}, n={n}, k={k} {}",
        shape.model,
        shape.layer,
        if full {
            "(full size)"
        } else {
            "(scaled 1/4, use --full for the real layer)"
        }
    );

    let a = MatrixF32::random(m, k, 7);
    let b = MatrixF32::random(k, n, 8);
    // The session owns kernel selection and execution: one plan per
    // (shape class, N:M) carries the tuned blocking and every family's
    // estimate; one prepared layer per level owns the staged weights.
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");

    // Dense baselines: the same CPU kernel at N = M (every vector of B
    // kept), and the simulated dense GEMM.
    let dense_cfg = NmConfig::dense32(benchmark_levels()[0].l);
    let dense_b = NmSparseMatrix::prune_magnitude(&b, dense_cfg).expect("dense config");
    let dense_cpu = session
        .load(dense_b, m)
        .expect("load dense layer")
        .forward(&a)
        .expect("dense forward");
    let dense_sim = session
        .plan(m, n, k, benchmark_levels()[0])
        .expect("plan")
        .estimates
        .dense;
    println!(
        "dense: CPU {:.1} ms, simulated A100 {:.3} ms ({:.1}% of peak)\n",
        dense_cpu.wall_seconds * 1e3,
        dense_sim.seconds * 1e3,
        100.0 * dense_sim.efficiency
    );

    let oracle = gemm_reference_f64(&a, &b);
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>10} {:>10} {:>12}  kernel",
        "sparsity", "ideal", "CPU ms", "CPU speedup", "A100 ms", "A100 spd", "mean |err|"
    );
    for cfg in benchmark_levels() {
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune");
        // Offline, once per level: plan (cached), stage, pack, dispatch.
        let layer = session.load(sb, m).expect("load layer");
        // Online: the amortized forward pass the wall clock measures.
        let run = layer.forward(&a).expect("forward");
        let plan = layer.plan();
        let sim = plan.best().expect("planned layers carry an estimate");
        let err = total_confusion(&run.c, &oracle);
        println!(
            "{:>9} {:>6.1}x {:>11.1}m {:>11.2}x {:>9.3}m {:>9.2}x {:>12.5}  {}",
            label(&cfg),
            cfg.ideal_speedup(),
            run.wall_seconds * 1e3,
            dense_cpu.wall_seconds / run.wall_seconds,
            sim.seconds * 1e3,
            plan.speedup_vs_dense()
                .expect("planned layers carry an estimate"),
            err,
            plan.choice,
        );
        // The sparse result must agree with dense wherever B survived:
        // cheap structural sanity check on one run.
        assert_eq!(run.c.shape(), dense_cpu.c.shape());
    }
    println!("\n(accuracy degrades as sparsity rises — the tradeoff the N:M literature tunes)");
    println!("plan cache after the sweep: {}", session.stats());
}
