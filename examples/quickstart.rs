//! Quickstart: prune a weight matrix to 2:4 vector-wise sparsity, load it
//! into a prepared session **once**, then run forward passes that amortize
//! all offline work — plus a tour of the analysis model underneath.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nm_spmm::analysis::strategy::Strategy;
use nm_spmm::core::confusion;
use nm_spmm::core::spmm::{gemm_reference, spmm_reference};
use nm_spmm::prelude::*;

fn main() {
    // 1. A dense layer: C[m][n] = A[m][k] · B[k][n].
    let (m, n, k) = (256, 512, 1024);
    let a = MatrixF32::random(m, k, 1);
    let b = MatrixF32::random(k, n, 2);

    // 2. Prune B to 2:4 sparsity with vector length 4 (50% of weights gone).
    let cfg = NmConfig::new(2, 4, 4).expect("valid config");
    // Arc so the loads below share one compressed copy.
    let sb = std::sync::Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune"));
    println!(
        "pruned B {}x{} at {} -> B' {}x{} + D {}x{} ({:.2}x smaller bit-packed)",
        k,
        n,
        cfg,
        sb.w(),
        sb.cols(),
        sb.w(),
        sb.q(),
        sb.compression_ratio(IndexLayout::BitPacked),
    );

    // 3. Build a session and load the layer ONCE: this is every offline
    //    cost in one place — strategy decision + exhaustive autotune
    //    (memoized in the plan cache), B' layout transformation, col_info
    //    packing, micro-kernel ISA dispatch. The handle owns it all.
    let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
    let layer = session.load(sb.clone(), m).expect("load layer");

    // 4. Forward passes are the online path: nothing is re-planned or
    //    re-staged, and `wall_seconds` measures exactly the per-call cost.
    let run = layer.forward(&a).expect("forward");
    let oracle = spmm_reference(&a, &sb);
    assert!(
        run.c.allclose(&oracle, 1e-3, 1e-4),
        "prepared layer disagrees with Eq. (1)"
    );
    println!(
        "prepared {} forward: {:.2} ms wall ({} micro-kernel), matches the Eq. (1) oracle ✓",
        layer.backend(),
        run.wall_seconds * 1e3,
        run.isa.name(),
    );

    // 5. Batched serving: one prepared layer, many activation batches —
    //    members are validated up front; each call fans out across the
    //    worker pool by itself.
    let batch: Vec<MatrixF32> = (0..4).map(|i| MatrixF32::random(32, k, 10 + i)).collect();
    let batch_run = layer.forward_batch(&batch).expect("batch");
    println!(
        "batched forward: {} members, {:.2} ms aggregate wall",
        batch_run.len(),
        batch_run.wall_seconds * 1e3,
    );

    // 6. Serving: wrap a prepared layer in a Server — bounded queue,
    //    continuous batching (concurrent decode requests stack into one
    //    skinny kernel call), deadlines, latency stats. `LoadSpec` is the
    //    typed load surface: this layer plans on the decode band even
    //    though the session was sized for prefill.
    let decode_layer = session
        .load_with(
            sb.clone(),
            LoadSpec::rows(m).shape_class(ShapeClass::Decode(4)),
        )
        .expect("decode layer");
    let server = Server::start(decode_layer, ServerConfig::default()).expect("server");
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| {
            let x = MatrixF32::random(1, k, 90 + i);
            server
                .submit_decode(x.row(0).to_vec(), SubmitOptions::default())
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        let done = t.wait().expect("served");
        assert_eq!(done.c.shape(), (1, n));
    }
    let stats = server.stats();
    println!(
        "served {} decode requests: p50 {:.3} ms, mean batch {:.1} ({})",
        stats.completed, stats.p50_ms, stats.mean_batch_size, stats,
    );
    drop(server);

    // 7. How good is the approximation of the dense product?
    let dense_c = gemm_reference(&a, &b);
    let rep = confusion::report(&run.c, &dense_c);
    println!(
        "approximation vs dense GEMM: mean |err| {:.4}, rel. Frobenius {:.3}",
        rep.mean_abs_error, rep.rel_frobenius
    );

    // 8. One kernel runs; the simulator predicts beside it. The plan's
    //    prediction is the modeled GPU launch for the same plan (event
    //    counts + timing report), computed on demand — nothing is
    //    executed to get it. A repeated load plans from the cache.
    let again = session.load(sb.clone(), m).expect("load");
    let (stats, report) = (again.plan())
        .predict(session.device(), m, again.weights())
        .expect("prediction");
    println!(
        "{}: {:.2} ms wall here; the plan predicts {:.3} ms on {} ({} FFMAs)",
        again.backend(),
        again.forward(&a).expect("forward").wall_seconds * 1e3,
        report.seconds * 1e3,
        session.device().name,
        stats.ffma,
    );
    println!("plan cache: {}", session.stats());

    // 9. Ask the analysis model why the plan looks the way it does.
    let plan = session.plan(m, n, k, cfg).expect("plan");
    let d = plan.decision;
    println!(
        "strategy: packing = {} (sparsity {:.1}% vs 70% threshold), AI = {:.1} FLOP/B, {:?}",
        d.packing,
        100.0 * d.sparsity,
        d.ai_flops_per_byte,
        d.predicted_bound,
    );
    let blocking = nm_spmm::kernels::params::derive_blocking(
        session.device(),
        plan.params,
        cfg,
        k,
        true,
        false,
    )
    .expect("blocking");
    let _ = Strategy::transition_sparsity(session.device(), 64, 128, blocking.ks);
}
