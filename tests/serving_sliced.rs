//! Serving × sliced storage: a decode-pinned layer staged as SELL-C-σ
//! must be invisible through the whole serving stack. A burst of decode
//! requests coalesced by the continuous batcher against the **sliced**
//! layer returns bit-for-bit the rows the **row-major** twin produces
//! serving each request alone — the storage format never leaks into the
//! numerics, even through batch coalescing.

use nm_spmm::kernels::AutotuneMode;
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use std::sync::Arc;
use std::time::Duration;

/// Two prepared layers over the same weights and the same decode-band
/// plan path: one auto (row-major), one pinned to a sliced layout.
fn twin_layers(
    k: usize,
    n: usize,
    layout: SlicedLayout,
    seed: u64,
) -> (Arc<PreparedLayer>, Arc<PreparedLayer>) {
    let cfg = NmConfig::new(2, 8, 16).expect("config");
    let b = MatrixF32::random(k, n, seed);
    let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune"));
    let mut session = SessionBuilder::new(a100_80g())
        .autotune(AutotuneMode::Off)
        .build()
        .expect("session");
    let spec = LoadSpec::rows(DECODE_MAX_ROWS);
    let rowmajor = session.load_with(sb.clone(), spec.clone()).expect("load");
    let sliced = session
        .load_with(sb, spec.storage(StorageFormat::Sliced(layout)))
        .expect("load sliced");
    assert_eq!(sliced.storage(), Some(StorageFormat::Sliced(layout)));
    (Arc::new(rowmajor), Arc::new(sliced))
}

#[test]
fn batched_decode_on_a_sliced_layer_is_bit_identical_to_the_row_major_twin() {
    let (k, n) = (90, 49); // both ragged against L = 16 and the window depth
    for (li, layout) in [
        SlicedLayout::new(1, 1).expect("C=1"),
        SlicedLayout::new(4, 16).expect("C=4"),
        SlicedLayout::DEFAULT,
    ]
    .into_iter()
    .enumerate()
    {
        let (rowmajor, sliced) = twin_layers(k, n, layout, 7100 + li as u64);
        let xs: Vec<Vec<f32>> = (0..DECODE_MAX_ROWS)
            .map(|i| MatrixF32::random(1, k, 7200 + (li * 16 + i) as u64).into_vec())
            .collect();

        // Sequential oracle: every request alone on the row-major twin.
        let want: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| rowmajor.forward_vec(x).expect("row-major").c.into_vec())
            .collect();

        // The sliced layer serves the same burst through the batcher;
        // pause/resume forces maximal coalescing (deterministically).
        let server = Server::start(
            sliced,
            ServerConfig {
                queue_capacity: 2 * DECODE_MAX_ROWS,
                linger: Duration::from_micros(50),
                ..Default::default()
            },
        )
        .expect("server");
        server.pause();
        let tickets: Vec<Ticket> = xs
            .iter()
            .map(|x| {
                server
                    .submit_decode(x.clone(), SubmitOptions::default())
                    .expect("admitted")
            })
            .collect();
        server.resume();

        for (i, t) in tickets.into_iter().enumerate() {
            let done = t.wait().expect("served");
            assert_eq!(done.c.shape(), (1, n));
            assert!(done.dispatch.batch_size >= 1);
            assert_eq!(
                done.c.as_slice(),
                &want[i][..],
                "C={} σ={} request {i}: sliced serving must be bit-identical \
                 to the row-major twin",
                layout.slice_height,
                layout.sort_window,
            );
        }
        let stats = server.stats();
        assert_eq!(stats.completed, DECODE_MAX_ROWS as u64);
        assert_eq!(stats.shed + stats.rejected, 0);
    }
}
