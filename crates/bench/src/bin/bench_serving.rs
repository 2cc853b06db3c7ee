//! Serving-latency harness: the `nm-serve` front-end under closed-loop
//! and open-loop load, against a no-batching serial baseline, on real
//! wall clocks.
//!
//! ```sh
//! # Full run (~a few seconds):
//! cargo run --release -p nm-bench --bin bench_serving
//!
//! # CI smoke: smaller request counts, plus the same-run batching gate —
//! # batched goodput must strictly beat the serial baseline at
//! # concurrency 4 and 8:
//! cargo run --release -p nm-bench --bin bench_serving -- \
//!     --quick --assert-batching --out BENCH_serving.json
//! ```
//!
//! ## What it measures
//!
//! The workload is the **decode band** — single-vector requests against
//! one prepared layer — because that is where continuous batching pays on
//! kernel-level evidence: the skinny SpMV is bandwidth-bound, so stacking
//! `m` concurrent vectors into one fused `forward` call streams the
//! packed `B′` once for all `m` rows (each row bit-identical to its own
//! `forward_vec` result). The win is per-core and does not depend on a
//! thread pool, so it holds on a single-core CI runner.
//!
//! * **serial** — the same requests served one-by-one via `forward_vec`,
//!   no server in the path: the goodput floor batching must beat.
//! * **closed loop** — `c` client threads, each submitting and waiting,
//!   at `c ∈ {1, 2, 4, 8}`, against one server per `c`: latency
//!   distribution (client-observed e2e p50/p95/p99, from the last round),
//!   goodput, and the server's mean coalesced batch size.
//! * **open loop** — paced submissions at ~2× the serial service rate
//!   with a per-request deadline: goodput under overload plus the shed
//!   and rejection accounting (every non-served request resolves with a
//!   structured error; the artifact proves none vanished).
//!
//! The serial and closed-loop lanes run as rivals of one [`race`] of
//! `ROUNDS` paired rounds, so every lane sees the same host drift. A
//! lane's goodput is its requests over its median round, and each
//! batched/serial ratio the gate reads is the median of the per-round
//! ratios.
//!
//! Exit codes: `0` success, `1` a `--assert-batching` gate failure,
//! `2` usage / I/O failure — including an `NM_SPMM_ISA` override this
//! host cannot execute and an unrecognized `NM_SPMM_AUTOTUNE` mode.

use gpu_sim::device::a100_80g;
use nm_bench::{mean, percentile, TextTable};
use nm_core::error::NmError;
use nm_core::json::JsonValue;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use nm_kernels::session::{LoadSpec, PreparedLayer};
use nm_kernels::{
    race, BackendKind, MicroKernel, NmVersion, SessionBuilder, Spread, DECODE_MAX_ROWS,
};
use nm_serve::{Server, ServerConfig, SubmitOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paired rounds of the serial and closed-loop race.
const ROUNDS: usize = 21;

/// One serving lane's outcome: wall-clock goodput plus the
/// client-observed latency distribution.
struct Lane {
    label: String,
    concurrency: usize,
    /// Requests served per round.
    requests: usize,
    /// Wall time of each raced round, seconds.
    rounds: Vec<f64>,
    latencies_ms: Vec<f64>,
    mean_batch: f64,
}

impl Lane {
    fn seconds(&self) -> f64 {
        Spread::of(&self.rounds).median
    }

    fn goodput_rps(&self) -> f64 {
        self.requests as f64 / self.seconds()
    }

    /// The median over rounds of this lane's goodput over `base`'s in the
    /// same round.
    fn paired_over(&self, base: &Lane) -> f64 {
        let ratios: Vec<f64> = (self.rounds.iter().zip(&base.rounds))
            .map(|(t, t0)| (self.requests as f64 / t) / (base.requests as f64 / t0))
            .collect();
        Spread::of(&ratios).median
    }

    fn json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("label", JsonValue::from_str_value(&self.label)),
            ("concurrency", JsonValue::from_usize(self.concurrency)),
            ("requests", JsonValue::from_usize(self.requests)),
            ("seconds", JsonValue::Number(self.seconds())),
            ("goodput_rps", JsonValue::Number(self.goodput_rps())),
            (
                "p50_ms",
                JsonValue::Number(percentile(&self.latencies_ms, 0.50)),
            ),
            (
                "p95_ms",
                JsonValue::Number(percentile(&self.latencies_ms, 0.95)),
            ),
            (
                "p99_ms",
                JsonValue::Number(percentile(&self.latencies_ms, 0.99)),
            ),
            ("mean_ms", JsonValue::Number(mean(&self.latencies_ms))),
            ("mean_batch", JsonValue::Number(self.mean_batch)),
        ])
    }
}

/// Deterministic request vectors: row `i` of a seeded random matrix.
fn request_pool(k: usize, count: usize, seed: u64) -> Vec<Vec<f32>> {
    let m = MatrixF32::random(count, k, seed);
    (0..count).map(|i| m.row(i).to_vec()).collect()
}

/// One round of a lane: the request stream served one at a time
/// through the prepared SpMV path when `server` is `None` (the no-server
/// baseline), else by `concurrency` closed-loop clients, each submit →
/// wait → repeat, `per_client` requests each. Returns the client-observed
/// latencies in milliseconds.
fn serve_round(
    layer: &PreparedLayer,
    server: Option<&Server>,
    pool: &[Vec<f32>],
    concurrency: usize,
    per_client: usize,
) -> Result<Vec<f64>, NmError> {
    let Some(server) = server else {
        return (0..per_client)
            .map(|i| {
                let t = Instant::now();
                layer.forward_vec(&pool[i % pool.len()])?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|client| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let x = &pool[(client * per_client + i) % pool.len()];
                            let t = Instant::now();
                            let ticket = loop {
                                match server.submit_decode(x.clone(), SubmitOptions::default()) {
                                    // A closed loop can only trip the bound
                                    // transiently; back off and retry.
                                    Err(NmError::Overloaded { .. }) => std::thread::yield_now(),
                                    submitted => break submitted?,
                                }
                            };
                            ticket.wait()?;
                            Ok(t.elapsed().as_secs_f64() * 1e3)
                        })
                        .collect::<Result<Vec<f64>, NmError>>()
                })
            })
            .collect();
        let mut latencies = Vec::new();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread")?);
        }
        Ok(latencies)
    })
}

/// Open loop: paced submissions at `offered_rps` with a deadline;
/// goodput, shed and rejection accounting under overload.
struct OpenOutcome {
    label: String,
    offered_rps: f64,
    submitted: usize,
    completed: usize,
    shed: usize,
    rejected: usize,
    seconds: f64,
    latencies_ms: Vec<f64>,
    deadline_ms: f64,
}

impl OpenOutcome {
    fn goodput_rps(&self) -> f64 {
        self.completed as f64 / self.seconds
    }

    fn json(&self) -> JsonValue {
        let finished = self.completed + self.shed;
        JsonValue::object(vec![
            ("label", JsonValue::from_str_value(&self.label)),
            ("offered_rps", JsonValue::Number(self.offered_rps)),
            ("deadline_ms", JsonValue::Number(self.deadline_ms)),
            ("submitted", JsonValue::from_usize(self.submitted)),
            ("completed", JsonValue::from_usize(self.completed)),
            ("shed", JsonValue::from_usize(self.shed)),
            ("rejected", JsonValue::from_usize(self.rejected)),
            ("seconds", JsonValue::Number(self.seconds)),
            ("goodput_rps", JsonValue::Number(self.goodput_rps())),
            (
                "shed_fraction",
                JsonValue::Number(if finished == 0 {
                    0.0
                } else {
                    self.shed as f64 / finished as f64
                }),
            ),
            (
                "p50_ms",
                JsonValue::Number(percentile(&self.latencies_ms, 0.50)),
            ),
            (
                "p99_ms",
                JsonValue::Number(percentile(&self.latencies_ms, 0.99)),
            ),
        ])
    }
}

fn run_open(
    label: &str,
    layer: Arc<PreparedLayer>,
    cfg: &ServerConfig,
    pool: &[Vec<f32>],
    offered_rps: f64,
    submissions: usize,
    deadline: Duration,
) -> OpenOutcome {
    let server = Server::start(layer, cfg.clone()).expect("server");
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let opts = SubmitOptions::default().with_deadline(deadline);
    let mut tickets = Vec::with_capacity(submissions);
    let mut rejected = 0usize;
    let t0 = Instant::now();
    for i in 0..submissions {
        if let Some(wait) = (t0 + interval * i as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match server.submit_decode(pool[i % pool.len()].clone(), opts) {
            Ok(ticket) => tickets.push((Instant::now(), ticket)),
            Err(NmError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("submit failed: {e}"),
        }
    }
    let mut latencies_ms = Vec::new();
    let mut shed = 0usize;
    for (submitted_at, ticket) in tickets {
        match ticket.wait() {
            Ok(_) => latencies_ms.push(submitted_at.elapsed().as_secs_f64() * 1e3),
            Err(NmError::DeadlineExceeded { .. }) => shed += 1,
            Err(e) => panic!("request resolved abnormally: {e}"),
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    OpenOutcome {
        label: label.to_string(),
        offered_rps,
        submitted: submissions - rejected,
        completed: latencies_ms.len(),
        shed,
        rejected,
        seconds,
        latencies_ms,
        deadline_ms: deadline.as_secs_f64() * 1e3,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_serving [--quick] [--assert-batching] [--out FILE] [--seed N]\n\
         \x20  --quick           smaller request counts (CI smoke)\n\
         \x20  --assert-batching exit 1 unless batched goodput beats serial at c >= 4\n\
         \x20  --out FILE        artifact path (default BENCH_serving.json)\n\
         \x20  --seed N          request-pool seed (default 42)"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut assert_batching = false;
    let mut out = String::from("BENCH_serving.json");
    let mut seed = 42u64;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--assert-batching" => assert_batching = true,
            "--out" => {
                i += 1;
                out = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    // Resolve the micro-kernel and build the session before any work, so
    // a malformed NM_SPMM_ISA / NM_SPMM_AUTOTUNE is a usage error (exit 2).
    // The session pins its backend, so NM_SPMM_BACKEND is only validated:
    // an unknown name (`cpu_v1` included) fails here too.
    let mut session = MicroKernel::select()
        .and_then(|kernel| {
            BackendKind::from_env()?;
            SessionBuilder::new(a100_80g())
                .backend(BackendKind::Cpu(NmVersion::V3))
                .micro_kernel(kernel)
                .build()
        })
        .unwrap_or_else(|e| {
            eprintln!("cannot build session: {e}");
            std::process::exit(2);
        });

    // One decode-band layer shared by every lane. k = n = 2048 keeps the
    // per-request kernel large enough that the serving layer's own costs
    // (linger window, wakeups) are second-order on any host.
    let (k, n) = (2048, 2048);
    let nm = NmConfig::new(2, 8, 32).expect("config");
    let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, seed ^ 0xbeef), nm)
        .expect("prune");
    let layer = Arc::new(
        session
            .load_with(sb, LoadSpec::rows(DECODE_MAX_ROWS))
            .expect("load decode-band layer"),
    );
    println!(
        "layer: {}x{} at {} on {}, plan class {} ({} micro-kernel)",
        k,
        n,
        nm,
        layer.backend(),
        layer.plan().key.shape.tag(),
        layer.isa().map(|i| i.name()).unwrap_or("-"),
    );

    // Gap-closed linger: a wide hard cap so a full closed-loop cohort can
    // gather, but the window shuts ~100 µs after arrivals stop — lone
    // requests (concurrency 1) pay only the gap, not the cap.
    let serving_cfg = ServerConfig {
        linger: Duration::from_micros(500),
        linger_gap: Duration::from_micros(100),
        ..Default::default()
    };
    let per_client = if quick { 16 } else { 64 };
    let serial_requests = if quick { 32 } else { 128 };
    let open_submissions = if quick { 120 } else { 400 };
    let pool = request_pool(k, 64, seed);

    // Warm the path (first-touch allocations, lazy page faults).
    for x in pool.iter().take(3) {
        layer.forward_vec(x).expect("warmup");
    }

    // The serial lane (no server) and one closed loop per concurrency,
    // each against its own server, raced in paired rounds.
    let mut rigs: Vec<(usize, usize, Option<Server>)> = vec![(1, serial_requests, None)];
    for c in [1usize, 2, 4, 8] {
        let server = Server::start(layer.clone(), serving_cfg.clone()).expect("server");
        rigs.push((c, per_client, Some(server)));
    }
    let mut rivals: Vec<_> = rigs
        .iter()
        .map(|(c, n, server)| || serve_round(&layer, server.as_ref(), &pool, *c, *n))
        .collect();
    let raced = race(&mut rivals, ROUNDS).expect("serving lanes");
    drop(rivals);
    let mut lanes: Vec<Lane> = rigs
        .into_iter()
        .zip(raced)
        .map(|((c, n, server), (rounds, latencies_ms))| Lane {
            label: match server {
                Some(_) => format!("closed-c{c}"),
                None => "serial".into(),
            },
            concurrency: c,
            requests: c * n,
            rounds,
            latencies_ms,
            mean_batch: server.map_or(1.0, |s| s.stats().mean_batch_size),
        })
        .collect();
    let serial = lanes.remove(0);
    // The same-run batching gate, on paired ratios: coalescing must buy
    // goodput once concurrency covers the decode band's stacking headroom.
    let ratio_at = |c: usize| {
        let lane = lanes.iter().find(|l| l.concurrency == c).expect("lane");
        lane.paired_over(&serial)
    };
    let (r4, r8) = (ratio_at(4), ratio_at(8));

    // Open loop, twice: at 2x the serial service rate (load batching is
    // expected to absorb — low shed, goodput above serial), and at 8x
    // (past even the batched capacity — deadlines shed, admission
    // control rejects, and every casualty is structurally accounted).
    let serial_rate = serial.goodput_rps();
    let opens: Vec<OpenOutcome> = vec![
        run_open(
            "open-2x",
            layer.clone(),
            &serving_cfg,
            &pool,
            serial_rate * 2.0,
            open_submissions,
            Duration::from_secs_f64(20.0 / serial_rate),
        ),
        run_open(
            "open-8x",
            layer.clone(),
            &serving_cfg,
            &pool,
            serial_rate * 8.0,
            open_submissions,
            Duration::from_secs_f64(10.0 / serial_rate),
        ),
    ];

    let mut table = TextTable::new(&["lane", "req", "goodput r/s", "p50 ms", "p99 ms", "batch"]);
    let fmt_lane = |l: &Lane| {
        [
            l.label.clone(),
            l.requests.to_string(),
            format!("{:.0}", l.goodput_rps()),
            format!("{:.3}", percentile(&l.latencies_ms, 0.50)),
            format!("{:.3}", percentile(&l.latencies_ms, 0.99)),
            format!("{:.2}", l.mean_batch),
        ]
    };
    table.row(&fmt_lane(&serial));
    for l in &lanes {
        table.row(&fmt_lane(l));
    }
    for open in &opens {
        table.row(&[
            open.label.clone(),
            format!("{}", open.submitted),
            format!("{:.0}", open.goodput_rps()),
            format!("{:.3}", percentile(&open.latencies_ms, 0.50)),
            format!("{:.3}", percentile(&open.latencies_ms, 0.99)),
            format!(
                "shed {:.0}% rej {}",
                100.0 * open.shed as f64 / open.submitted.max(1) as f64,
                open.rejected
            ),
        ]);
    }
    table.print();

    println!("batched/serial goodput: c4 {r4:.2}x, c8 {r8:.2}x");

    let doc = JsonValue::object(vec![
        ("schema", JsonValue::from_str_value("serving-v1")),
        ("quick", JsonValue::Bool(quick)),
        ("seed", JsonValue::from_usize(seed as usize)),
        ("rounds", JsonValue::from_usize(ROUNDS)),
        ("threads", JsonValue::from_usize(session.threads())),
        (
            "isa",
            layer
                .isa()
                .map(|i| JsonValue::from_str_value(i.name()))
                .unwrap_or(JsonValue::Null),
        ),
        (
            "shape",
            JsonValue::object(vec![
                ("k", JsonValue::from_usize(k)),
                ("n", JsonValue::from_usize(n)),
                ("n_keep", JsonValue::from_usize(nm.n)),
                ("m_win", JsonValue::from_usize(nm.m)),
                ("sparsity", JsonValue::Number(nm.sparsity())),
                (
                    "plan_class",
                    JsonValue::from_str_value(&layer.plan().key.shape.tag()),
                ),
            ]),
        ),
        (
            "config",
            JsonValue::object(vec![
                (
                    "queue_capacity",
                    JsonValue::from_usize(serving_cfg.queue_capacity),
                ),
                (
                    "max_decode_batch",
                    JsonValue::from_usize(serving_cfg.max_decode_batch),
                ),
                (
                    "linger_us",
                    JsonValue::Number(serving_cfg.linger.as_secs_f64() * 1e6),
                ),
                (
                    "linger_gap_us",
                    JsonValue::Number(serving_cfg.linger_gap.as_secs_f64() * 1e6),
                ),
            ]),
        ),
        ("serial", serial.json()),
        (
            "closed_loop",
            JsonValue::Array(lanes.iter().map(Lane::json).collect()),
        ),
        (
            "open_loop",
            JsonValue::Array(opens.iter().map(OpenOutcome::json).collect()),
        ),
        (
            "gate",
            JsonValue::object(vec![
                ("batched_over_serial_c4", JsonValue::Number(r4)),
                ("batched_over_serial_c8", JsonValue::Number(r8)),
            ]),
        ),
    ]);
    let json = doc.dump().expect("artifact serializes");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("writing {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");

    if assert_batching {
        let mut failed = false;
        for (c, r) in [(4usize, r4), (8, r8)] {
            if r <= 1.0 {
                eprintln!(
                    "GATE FAIL: batched goodput at concurrency {c} is {r:.2}x serial (need > 1)"
                );
                failed = true;
            }
        }
        // Overload must shed or reject rather than drop: everything that
        // was admitted either completed or was shed with a structured
        // error — nothing vanishes.
        for open in &opens {
            if open.completed + open.shed != open.submitted {
                eprintln!(
                    "GATE FAIL: {} accounting does not balance ({} + {} != {})",
                    open.label, open.completed, open.shed, open.submitted
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("batching gate passed (c4 {r4:.2}x, c8 {r8:.2}x > 1.00x serial)");
    }
}
