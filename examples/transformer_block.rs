//! End-to-end transformer FFN block under N:M pruning: the three MLP
//! matmuls of a (scaled) Llama block — gate, up, down — pruned with the
//! *layer-wise* allocator, channel-permuted, loaded into a prepared
//! session as reusable layer handles, executed on the CPU and costed on
//! the simulated A100. Demonstrates the full production pipeline:
//!
//! offline:  permute → allocate per-layer N → prune → compress →
//!           serialize → `Session::load` (plan + stage + pack, once)
//! online:   `PreparedLayer::forward` passes, offline work amortized
//!
//! ```sh
//! cargo run --release --example transformer_block
//! ```

use nm_spmm::core::layerwise::{allocate, spec_from_weights};
use nm_spmm::core::permute;
use nm_spmm::core::serialize;
use nm_spmm::core::spmm::gemm_reference;
use nm_spmm::prelude::*;
use std::time::Instant;

fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

fn main() {
    // Scaled Llama-style FFN: hidden 512, intermediate 1376 (11008/8).
    let (m, h, f) = (64usize, 512usize, 1376usize);
    let m_window = 16usize;
    let l = 32usize;
    println!("FFN block: batch {m}, hidden {h}, intermediate {f}\n");

    let w_gate = MatrixF32::random(h, f, 1);
    let w_up = MatrixF32::random(h, f, 2);
    let w_down = MatrixF32::random(f, h, 3);
    let x = MatrixF32::random(m, h, 4);

    // --- offline: layer-wise sparsity allocation under a 40% FLOP budget --
    let specs = vec![
        spec_from_weights("gate", &w_gate, m_window, l, m),
        spec_from_weights("up", &w_up, m_window, l, m),
        spec_from_weights("down", &w_down, m_window, l, m),
    ];
    let alloc = allocate(&specs, m_window, 0.40);
    println!(
        "layer-wise allocation at 40% FLOP budget: N = {:?} (of M = {m_window})",
        alloc.n_per_layer
    );

    // --- offline: channel permutation + prune + load per layer ---
    // One session owns planning and staging for all three matmuls; each
    // `load` is the layer's entire offline cost, paid exactly once.
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let mut multipliers = Vec::new();
    for (i, (name, w)) in [("gate", &w_gate), ("up", &w_up), ("down", &w_down)]
        .into_iter()
        .enumerate()
    {
        let cfg = NmConfig::new(alloc.n_per_layer[i], m_window, l).expect("config");
        let perm = permute::search(w, cfg, 2);
        let wp = perm.apply_to_b(w);
        let sb = NmSparseMatrix::prune_magnitude(&wp, cfg).expect("prune");
        // Round-trip through the serialized container, as a deployment would.
        let blob = serialize::to_bytes(&sb);
        let sb = serialize::from_bytes(&blob).expect("load");
        println!(
            "  {name}: {} | permutation kept +{:.2}% magnitude | blob {} KiB",
            cfg,
            100.0 * perm.improvement(),
            blob.len() / 1024
        );
        multipliers.push((session.load(sb, m).expect("load layer"), perm));
    }

    // --- online: the block forward pass ---
    let t0 = Instant::now();
    let (gate_mul, gate_perm) = &multipliers[0];
    let (up_mul, up_perm) = &multipliers[1];
    let (down_mul, down_perm) = &multipliers[2];

    let xg = gate_perm.apply_to_a(&x);
    let xu = up_perm.apply_to_a(&x);
    let g = gate_mul.forward(&xg).expect("gate").c;
    let u = up_mul.forward(&xu).expect("up").c;
    let mut hmid = MatrixF32::zeros(m, f);
    for i in 0..m {
        for j in 0..f {
            hmid.set(i, j, silu(g.get(i, j)) * u.get(i, j));
        }
    }
    let hp = down_perm.apply_to_a(&hmid);
    let y = down_mul.forward(&hp).expect("down").c;
    let sparse_wall = t0.elapsed();

    // Dense reference for error + time.
    let t0 = Instant::now();
    let gd = gemm_reference(&x, &w_gate);
    let ud = gemm_reference(&x, &w_up);
    let mut hd = MatrixF32::zeros(m, f);
    for i in 0..m {
        for j in 0..f {
            hd.set(i, j, silu(gd.get(i, j)) * ud.get(i, j));
        }
    }
    let yd = gemm_reference(&hd, &w_down);
    let dense_wall = t0.elapsed();

    println!(
        "\nCPU block forward: sparse {:.1} ms vs dense {:.1} ms ({:.2}x)",
        sparse_wall.as_secs_f64() * 1e3,
        dense_wall.as_secs_f64() * 1e3,
        dense_wall.as_secs_f64() / sparse_wall.as_secs_f64()
    );
    println!(
        "output error vs dense block: rel. Frobenius {:.3}",
        y.rel_frobenius_error(&yd)
    );

    // --- simulated A100 cost of the three matmuls ---
    // Each loaded layer's plan already carries every family's estimate;
    // no kernel is re-modeled by hand.
    let mut dense_ms = 0.0;
    let mut sparse_ms = 0.0;
    for (layer, _) in &multipliers {
        let est = layer.plan().estimates;
        dense_ms += est.dense.seconds * 1e3;
        sparse_ms += layer
            .plan()
            .best()
            .expect("planned layers carry an estimate")
            .seconds
            * 1e3;
    }
    println!(
        "simulated A100 block matmuls: sparse {:.4} ms vs dense {:.4} ms ({:.2}x)",
        sparse_ms,
        dense_ms,
        dense_ms / sparse_ms
    );
}
