//! Serving-layer concurrency contracts: the bounded queue rejects (never
//! blocks) at exactly its bound, dispatch is FIFO within a priority and
//! interactive-before-bulk across priorities, every admitted request
//! resolves with a result or a structured error — no silent drops — and
//! continuous batching is **bit-identical** to serving each request
//! sequentially through the same prepared layer.
//!
//! The tests use the server's pause/resume harness hook to make batching
//! deterministic: while paused the batcher admits and pools requests but
//! forms no batches, so "submit a burst, then resume" forces exactly the
//! coalescing a concurrent burst would get, without racing the worker.

use nm_spmm::kernels::AutotuneMode;
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A decode-band prepared layer on the cost-model plan (autotune `Off`
/// pins the plan path — no measurement, so each proptest case stays
/// cheap).
fn decode_layer(k: usize, n: usize, seed: u64) -> Arc<PreparedLayer> {
    let cfg = NmConfig::new(2, 8, 16).expect("config");
    let b = MatrixF32::random(k, n, seed);
    let sb = Arc::new(NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune"));
    let mut session = SessionBuilder::new(a100_80g())
        .autotune(AutotuneMode::Off)
        .build()
        .expect("session");
    let layer = session
        .load_with(sb, LoadSpec::rows(DECODE_MAX_ROWS))
        .expect("load");
    Arc::new(layer)
}

/// Submit `count` decode requests at one priority and return the tickets.
fn submit_burst(server: &Server, k: usize, count: usize, prio: Priority, seed: u64) -> Vec<Ticket> {
    (0..count)
        .map(|i| {
            let x = MatrixF32::random(1, k, seed + i as u64).into_vec();
            server
                .submit_decode(x, SubmitOptions::priority(prio))
                .expect("admitted")
        })
        .collect()
}

#[test]
fn interactive_dispatches_before_bulk_and_fifo_within_each() {
    let (k, n) = (64, 48);
    let layer = decode_layer(k, n, 11);
    // A batch cap of 2 splits each 4-burst into two batches, so the
    // dispatch counter exposes the order batches formed in.
    let server = Server::start(
        layer,
        ServerConfig {
            queue_capacity: 16,
            max_decode_batch: 2,
            linger: Duration::from_micros(50),
            ..Default::default()
        },
    )
    .expect("server");

    // Bulk submitted FIRST — if it still dispatches last, priority won.
    server.pause();
    let bulk = submit_burst(&server, k, 4, Priority::Bulk, 100);
    let inter = submit_burst(&server, k, 4, Priority::Interactive, 200);
    server.resume();

    let inter_orders: Vec<u64> = inter
        .into_iter()
        .map(|t| {
            let done = t.wait().expect("served");
            assert_eq!(done.c.shape(), (1, n));
            assert_eq!(done.dispatch.kind, BatchKind::Decode);
            assert!(done.dispatch.batch_size <= 2);
            done.dispatch.order
        })
        .collect();
    let bulk_orders: Vec<u64> = bulk
        .into_iter()
        .map(|t| t.wait().expect("served").dispatch.order)
        .collect();

    // Every interactive batch dispatched before any bulk batch.
    let max_inter = *inter_orders.iter().max().unwrap();
    let min_bulk = *bulk_orders.iter().min().unwrap();
    assert!(
        max_inter < min_bulk,
        "interactive orders {inter_orders:?} must all precede bulk orders {bulk_orders:?}"
    );
    // FIFO within each priority: dispatch order is non-decreasing in
    // submission order, and neighbours coalesced under the cap of 2.
    for orders in [&inter_orders, &bulk_orders] {
        assert!(
            orders.windows(2).all(|w| w[0] <= w[1]),
            "dispatch order must follow submission order: {orders:?}"
        );
        assert_eq!(orders[0], orders[1], "first pair shares a batch");
        assert_eq!(orders[2], orders[3], "second pair shares a batch");
        assert!(orders[1] < orders[2], "pairs are distinct batches");
    }
}

#[test]
fn backpressure_rejects_at_exactly_the_bound_and_recovers() {
    let (k, n) = (64, 32);
    let layer = decode_layer(k, n, 22);
    let capacity = 3;
    let server = Server::start(
        layer,
        ServerConfig {
            queue_capacity: capacity,
            ..Default::default()
        },
    )
    .expect("server");

    // Freeze dispatch so the queue genuinely fills.
    server.pause();
    let admitted = submit_burst(&server, k, capacity, Priority::Interactive, 300);
    assert_eq!(server.queue_depth(), capacity);

    // Submission `capacity + 1` fails fast with the structured error —
    // it does not block, and it does not evict anyone.
    for extra in 0..2 {
        let x = MatrixF32::random(1, k, 400 + extra).into_vec();
        match server.submit_decode(x, SubmitOptions::default()) {
            Err(NmError::Overloaded { capacity: cap }) => assert_eq!(cap, capacity),
            other => panic!("expected Overloaded at the bound, got {other:?}"),
        }
    }
    assert_eq!(server.queue_depth(), capacity, "rejects must not evict");

    // Recovery: drain, then the same queue admits again.
    server.resume();
    for t in admitted {
        let done = t.wait().expect("served after resume");
        assert_eq!(done.c.shape(), (1, n));
    }
    let t = submit_burst(&server, k, 1, Priority::Interactive, 500).remove(0);
    t.wait().expect("admitted after drain");

    let stats = server.stats();
    assert_eq!(stats.submitted, capacity as u64 + 1);
    assert_eq!(stats.completed, capacity as u64 + 1);
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn every_admitted_request_resolves_with_a_result_or_a_structured_error() {
    let (k, n) = (64, 32);
    let layer = decode_layer(k, n, 33);
    let server = Server::start(
        layer,
        ServerConfig {
            queue_capacity: 16,
            ..Default::default()
        },
    )
    .expect("server");

    // Six requests: even indices carry a 1 ms deadline and are held past
    // it while the server is paused, odd indices have no deadline.
    server.pause();
    let tickets: Vec<(usize, Ticket)> = (0..6)
        .map(|i| {
            let x = MatrixF32::random(1, k, 600 + i as u64).into_vec();
            let opts = if i % 2 == 0 {
                SubmitOptions::default().with_deadline(Duration::from_millis(1))
            } else {
                SubmitOptions::default()
            };
            (i, server.submit_decode(x, opts).expect("admitted"))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    server.resume();

    let (mut served, mut shed) = (0u64, 0u64);
    for (i, t) in tickets {
        // `wait` itself is the no-silent-drop proof: a dropped reply
        // channel would surface as Canceled, not hang.
        match t.wait() {
            Ok(done) => {
                assert_eq!(i % 2, 1, "deadline-free request {i} must be served");
                assert_eq!(done.c.shape(), (1, n));
                served += 1;
            }
            Err(NmError::DeadlineExceeded {
                deadline_ms,
                queued_ms,
            }) => {
                assert_eq!(i % 2, 0, "only deadlined requests may be shed");
                assert_eq!(deadline_ms, 1);
                assert!(queued_ms >= deadline_ms, "shed before the budget ran out");
                shed += 1;
            }
            Err(e) => panic!("request {i}: unexpected error {e:?}"),
        }
    }
    assert_eq!((served, shed), (3, 3));

    // The ledger balances: everything submitted is accounted for.
    let stats = server.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed + stats.shed, stats.submitted);
    assert_eq!(stats.queue_depth, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Continuous batching must be invisible in the numbers: a burst of
    /// decode requests coalesced into one skinny kernel call — plus a
    /// prefill rider through `forward_batch` — returns bit-for-bit the
    /// rows the same prepared layer produces serving each request alone.
    #[test]
    fn batched_serving_is_bit_identical_to_sequential(
        k in 16usize..80,
        n in 8usize..48,
        reqs in 1usize..=DECODE_MAX_ROWS,
        seed in 0u64..1000,
    ) {
        let layer = decode_layer(k, n, seed);
        let xs: Vec<Vec<f32>> = (0..reqs)
            .map(|i| MatrixF32::random(1, k, seed ^ (7000 + i as u64)).into_vec())
            .collect();
        let a = MatrixF32::random(3, k, seed ^ 0x5afe);

        // Sequential oracle: one request per kernel call.
        let seq: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| layer.forward_vec(x).expect("sequential").c.into_vec())
            .collect();
        let seq_prefill = layer.forward(&a).expect("sequential prefill").c;

        // Batched: the paused burst coalesces maximally on resume.
        let server = Server::start(layer.clone(), ServerConfig::default()).expect("server");
        server.pause();
        let tickets: Vec<Ticket> = xs
            .iter()
            .map(|x| server.submit_decode(x.clone(), SubmitOptions::default()).expect("admitted"))
            .collect();
        let prefill_ticket = server.submit(a, SubmitOptions::default()).expect("admitted");
        server.resume();

        for (i, t) in tickets.into_iter().enumerate() {
            let done = t.wait().expect("served");
            prop_assert_eq!(done.c.shape(), (1, n));
            // Bit-identity, not allclose: stacking rows into one fused
            // call must not perturb a single mantissa bit.
            prop_assert_eq!(done.c.as_slice(), &seq[i][..], "decode request {}", i);
            prop_assert!(done.dispatch.batch_size >= 1);
        }
        let done = prefill_ticket.wait().expect("served");
        prop_assert_eq!(done.dispatch.kind, BatchKind::Prefill);
        prop_assert_eq!(done.c.as_slice(), seq_prefill.as_slice());
    }
}
