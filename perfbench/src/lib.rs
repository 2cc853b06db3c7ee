//! Half-Llama-7B stack benchmark.
//!
//! Six blocks of hidden 2048 / FFN 5504 are generated from the workload
//! seed, magnitude-pruned, serialized, and deployed through the public
//! session API starting at `serialize::from_bytes`. Every run executes the
//! three things a user of the deployment sees — 256-row prompt passes, m=1
//! decode steps, and served decode under an open loop — with equal shares
//! of the measured seconds, because every end-to-end metric is reported on
//! every workload. A workload is a deployment: which plans are measured on
//! the host rather than taken from the cost model.
//!
//! * `prefill`: cost-model plans only (autotune `Off`). Decode steps ride
//!   on the prompt-planned staging and the server's gate is a cost-model
//!   decode plan, so no measurement runs.
//! * `decode`: as `prefill`, plus a second stack loaded for m=1 under
//!   autotune `Quick`, which measures ladder version, tiling and SELL-C-σ
//!   storage per key during set-up; decode steps and the served gate run
//!   on that session.
//! * `serve`: as `prefill`, except that the served gate is loaded on a
//!   `Quick` session.
//!
//! A traced run (`trace`) records spans around every public call the
//! benchmark makes and reports per-layer metrics from them instead.

pub mod model;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod trace;

use model::{Deployment, Dims, Inputs, PROJECTIONS};
use nm_core::json::JsonValue;
use nm_kernels::simd::MicroKernel;
use serve::{Rung, LIMIT, NOMINAL, OVERLOAD, RATES};
use stats::{median, tail, Tail};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Span, Tracer};

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Version of the header and result layout.
pub const SCHEMA: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prefill,
    Decode,
    Serve,
}

/// The stack phases of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prefill,
    Decode,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Prefill, Workload::Decode, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Prefill => "prefill",
            Workload::Decode => "decode",
            Workload::Serve => "serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload's deployment plans by measurement.
    fn measured(self) -> model::Measured {
        match self {
            Workload::Prefill => model::Measured::Nothing,
            Workload::Decode => model::Measured::DecodeStackAndServedGate,
            Workload::Serve => model::Measured::ServedGate,
        }
    }

    /// The stack phase whose kernels the per-layer metrics describe.
    fn stack_phase(self) -> Phase {
        match self {
            Workload::Prefill => Phase::Prefill,
            Workload::Decode | Workload::Serve => Phase::Decode,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dims: Dims,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Bytes of each triad array; `None` sizes the three arrays to at
    /// least four times the last-level cache together.
    pub triad_array_bytes: Option<usize>,
    /// Where the run's header, result and spans are written at the end.
    pub out_dir: Option<PathBuf>,
}

impl Config {
    /// The benchmark as the command line runs it.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            dims: Dims::HALF_LLAMA_7B,
            setup_reps: 3,
            triad_array_bytes: None,
            out_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
        }
    }

    /// A stack small enough for tests.
    pub fn tiny(workload: Workload, trace: bool) -> Self {
        Self {
            dims: Dims {
                hidden: 64,
                ffn: 160,
                blocks: 2,
                prompt_rows: 16,
            },
            setup_reps: 1,
            triad_array_bytes: Some(1 << 20),
            out_dir: None,
            ..Self::new(workload, 7, 0.8, trace)
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub header: JsonValue,
    pub samples: JsonValue,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result object the command prints as its last line.
    pub fn result(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // A failed request is infinitely late; JSON has no infinity.
                let value = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                let v = JsonValue::object(vec![
                    ("value", JsonValue::Number(value)),
                    ("unit", JsonValue::from_str_value(m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }

    /// The header, samples, result and spans as one document.
    pub fn document(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::Array(vec![
                    JsonValue::Number(s.id as f64),
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    JsonValue::from_str_value(s.name),
                    JsonValue::Number(s.key as f64),
                    JsonValue::Number(s.start_ns as f64),
                    JsonValue::Number(s.end_ns as f64),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("header", self.header.clone()),
            ("samples", self.samples.clone()),
            ("result", self.result()),
            (
                "span_fields",
                JsonValue::from_str_value("id parent name key start_ns end_ns"),
            ),
            ("spans", JsonValue::Array(spans)),
        ])
    }
}

/// Operations attempted and failed across every phase. A forward call, a
/// checked forward and a served request each count as one operation. An
/// operation fails when it returns an error or a wrong output; requests
/// shed at their deadline or refused at admission are load outcomes,
/// counted as misses by the serve metrics instead.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

/// Per-phase timing samples in seconds, split by whether spans were on.
#[derive(Debug, Default)]
struct Timed {
    plain: Vec<f64>,
    traced: Vec<f64>,
}

impl Timed {
    fn all(&self) -> Vec<f64> {
        [self.plain.as_slice(), self.traced.as_slice()].concat()
    }
}

/// Run `step` until `budget_s` has elapsed and at least `min_iters` ran,
/// returning each iteration's wall seconds with the hypervisor's steal
/// time taken out. On a shared VM other tenants take from none to most of
/// the CPU from one run to the next, which is not the program's time. A
/// fork-join pass is delayed by at least the most-robbed CPU's stolen
/// time and at most the sum over CPUs; each time is scaled down by the
/// midpoint's share of the chunk. The share is pushed to `stolen`.
fn timed_chunk(
    budget_s: f64,
    min_iters: usize,
    stolen: &mut Vec<f64>,
    mut step: impl FnMut(usize) -> Result<()>,
) -> Result<Vec<f64>> {
    let before = probe::steal_s();
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_iters || t0.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        step(times.len())?;
        times.push(t.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    let robbed: Vec<f64> = probe::steal_s()
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect();
    let most = robbed.iter().copied().fold(0.0, f64::max);
    let share = ((most + robbed.iter().sum::<f64>()) / 2.0 / wall).clamp(0.0, 0.9);
    stolen.push(share);
    Ok(times.into_iter().map(|t| t * (1.0 - share)).collect())
}

/// Rounds the measured window is split into.
const ROUNDS: usize = 5;
/// Decode steps needed for a tail with ten samples beyond it.
const MIN_DECODE_STEPS: usize = 2 * stats::TAIL_BEYOND + 1;
/// Prompt rows whose outputs are checked, per projection.
const CHECKED_ROWS: usize = 4;
/// Decode steps re-run untimed and checked.
const CHECKED_STEPS: usize = 2;

pub fn run(cfg: &Config) -> Result<Report> {
    let dims = cfg.dims;
    let t0 = Instant::now();
    let progress = |what: &str| eprintln!("[{:7.2} s] {what}", t0.elapsed().as_secs_f64());
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let isa = MicroKernel::select()?.isa();
    let llc = probe::llc_bytes();
    let tr = Tracer::new(cfg.trace);
    let quiet = Tracer::new(false);

    // Probe before generating, so the probe arrays never sit beside the
    // weights in memory.
    let triad_array = cfg.triad_array_bytes.unwrap_or((4 * llc).div_ceil(3));
    let host = if cfg.trace {
        Some((
            probe::triad_gbps(triad_array, threads, 5),
            probe::fma_gflops(isa, threads),
        ))
    } else {
        None
    };

    let Inputs {
        blobs,
        prompt,
        tokens,
        requests,
        expected,
    } = model::generate(dims, cfg.seed, threads);

    progress("generated inputs");
    let mut costs = Vec::new();
    let mut deployed: Option<Deployment> = None;
    for rep in 0..cfg.setup_reps.max(1) {
        drop(deployed.take());
        let d = model::deploy(
            &blobs,
            dims,
            cfg.workload.measured(),
            threads,
            &tr,
            rep as u64,
        )?;
        costs.push(d.cost.clone());
        deployed = Some(d);
    }
    let dep = deployed.expect("at least one set-up ran");
    drop(blobs);
    let ready_rss = vm_rss_bytes();
    progress("deployed");

    // Each phase's share of the measured seconds in one round. A traced
    // run spends half of it untraced; the ratio of the two halves is the
    // tracing overhead.
    let per_phase = cfg.seconds / 3.0 / ROUNDS as f64;
    let (plain, traced) = if cfg.trace {
        (per_phase / 2.0, per_phase / 2.0)
    } else {
        (per_phase, 0.0)
    };
    let mut ops = Ops::default();
    let per_pass = (dims.blocks * PROJECTIONS.len()) as u64;

    // Untimed and checked first: the first prompt pass on sampled rows,
    // two decode warm-up steps, and a short low-rate serve warm-up.
    let rows = sample_distinct(
        cfg.seed,
        5,
        CHECKED_ROWS.min(dims.prompt_rows),
        dims.prompt_rows,
    );
    let mut captures = Vec::new();
    let capture = model::CaptureRows {
        rows: &rows,
        out: &mut captures,
    };
    model::forward_stack(&dep.prefill, &prompt, false, &quiet, None, Some(capture))?;
    ops.mismatched += model::mismatches(&dep.prefill, &captures);
    let stack = dep.decode_stack();
    let token = |i: usize| &tokens[i % tokens.len()];
    for i in 0..2 {
        model::forward_stack(stack, token(i), true, &quiet, None, None)?;
    }
    let warm = serve::run_rung(&dep.server, &requests, &expected, RATES[0], 0.05, &quiet);
    ops.attempted += per_pass * 3;

    // The measured window: every phase in each of the rounds, so all of
    // them sample the same stretch of host time.
    let (mut prefill, mut decode) = (Timed::default(), Timed::default());
    let mut stolen = Vec::new();
    let (mut served_plain, mut served_traced) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for (t, secs, out) in [
            (&quiet, plain, &mut prefill.plain),
            (&tr, traced, &mut prefill.traced),
        ] {
            if secs > 0.0 {
                let first = out.len();
                out.extend(timed_chunk(secs, 1, &mut stolen, |i| {
                    t.span("prefill.pass", None, (first + i) as u64, |pid| {
                        model::forward_stack(&dep.prefill, &prompt, false, t, pid, None)
                    })?;
                    Ok(())
                })?);
            }
        }
        for (t, secs, out) in [
            (&quiet, plain, &mut decode.plain),
            (&tr, traced, &mut decode.traced),
        ] {
            if secs > 0.0 {
                let first = out.len();
                out.extend(timed_chunk(
                    secs,
                    MIN_DECODE_STEPS.div_ceil(ROUNDS),
                    &mut stolen,
                    |i| {
                        t.span("decode.step", None, (first + i) as u64, |sid| {
                            model::forward_stack(stack, token(first + i), true, t, sid, None)
                        })?;
                        Ok(())
                    },
                )?);
            }
        }
        for (t, secs, out) in [
            (&quiet, plain, &mut served_plain),
            (&tr, traced, &mut served_traced),
        ] {
            if secs > 0.0 {
                let per_rate = secs / RATES.len() as f64;
                out.push(
                    RATES
                        .iter()
                        .map(|&rate| {
                            serve::run_rung(&dep.server, &requests, &expected, rate, per_rate, t)
                        })
                        .collect::<Vec<Rung>>(),
                );
            }
        }
    }
    ops.attempted += per_pass * (prefill.all().len() + decode.all().len()) as u64;
    progress("measured");

    // A seeded sample of decode inputs, re-run untimed and checked.
    let mut captures = Vec::new();
    for i in sample_distinct(cfg.seed, 6, CHECKED_STEPS, tokens.len()) {
        let capture = model::CaptureRows {
            rows: &[0],
            out: &mut captures,
        };
        model::forward_stack(stack, token(i), true, &quiet, None, Some(capture))?;
    }
    ops.mismatched += model::mismatches(stack, &captures);
    ops.attempted += per_pass * CHECKED_STEPS as u64;
    let served_all = served_plain.iter().chain(&served_traced).flatten();
    for r in std::iter::once(&warm).chain(served_all) {
        ops.attempted += r.attempted;
        ops.mismatched += r.mismatched;
        ops.failed += r.errors;
    }
    ops.failed += ops.mismatched;

    let spans = tr.spans();
    let prefill_s = prefill.all();
    let decode_s = decode.all();
    let served = if served_traced.is_empty() {
        &served_plain
    } else {
        &served_traced
    };
    let rates: Vec<RateStats> = (0..RATES.len()).map(|i| rate_stats(served, i)).collect();
    let decode_tail = tail(&decode_s);

    let metrics = if cfg.trace {
        let layer = LayerInputs {
            dims,
            dep: &dep,
            stack_phase: cfg.workload.stack_phase(),
            spans: &spans,
            costs: &costs,
            served,
            host: host.expect("traced runs probe the host"),
        };
        let unit = |t: &Timed| median(&t.traced) / median(&t.plain);
        let overhead = match cfg.workload.stack_phase() {
            Phase::Prefill => unit(&prefill),
            Phase::Decode => unit(&decode),
        };
        let mut m = per_layer_metrics(&layer, overhead)?;
        // Latency at the nominal rate: on a small VM it follows the
        // hypervisor's wake-up latency from run to run, so it is reported
        // here rather than bounded as an end-to-end metric.
        m.push(metric("serve_p50_ms", rates[NOMINAL].p50_ms, "ms"));
        m.push(metric("serve_tail_ms", rates[NOMINAL].tail_ms, "ms"));
        m
    } else {
        let max_rate = rates
            .iter()
            .filter(|r| r.meets_limit())
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        vec![
            metric("setup_s", median(&pick(&costs, |c| c.total_s)), "s"),
            metric("ready_rss_mb", ready_rss as f64 / 1e6, "MB"),
            metric(
                "error_rate",
                stats::failure_rate_upper_bound(ops.failed, ops.attempted),
                "ratio",
            ),
            metric(
                "prefill_tok_s",
                dims.prompt_rows as f64 / median(&prefill_s),
                "tok/s",
            ),
            metric("decode_step_p50_ms", median(&decode_s) * 1e3, "ms"),
            metric("decode_step_tail_ms", decode_tail.value * 1e3, "ms"),
            metric("serve_goodput_rps", rates[OVERLOAD].goodput_rps, "req/s"),
            metric("serve_max_rate_rps", max_rate, "req/s"),
        ]
    };

    let header = header(cfg, &dep, isa.name(), threads, llc, triad_array);
    let samples = JsonValue::object(vec![
        ("setup_s", numbers(&pick(&costs, |c| c.total_s))),
        ("prefill_pass_s", numbers(&prefill_s)),
        ("stolen_share", numbers(&stolen)),
        ("decode_steps", JsonValue::from_usize(decode_s.len())),
        ("decode_step_tail", tail_json(decode_tail)),
        ("serve_rounds", JsonValue::from_usize(served.len())),
        (
            "serve_rates",
            JsonValue::Array(rates.iter().map(RateStats::json).collect()),
        ),
        ("mismatched", JsonValue::Number(ops.mismatched as f64)),
    ]);
    let report = Report {
        header,
        samples,
        correct: ops.mismatched == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        spans,
    };
    drop(dep);
    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir)?;
        let name = format!(
            "{}-seed{}-trace{}.json",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace)
        );
        std::fs::write(dir.join(name), report.document().dump()?)?;
    }
    Ok(report)
}

/// Requests per window of the serve tail.
const TAIL_WINDOW: usize = 100;

/// One offered rate across the serve rounds. The p50 pools every request.
/// The tail is the median over windows of `TAIL_WINDOW` consecutive
/// requests of each window's tail (its 90th percentile, ten samples
/// beyond): on a small VM, host stalls of tens of milliseconds land on a
/// few requests at random, so the tail of the whole run measures the
/// worst stall rather than the server.
struct RateStats {
    rate: f64,
    p50_ms: f64,
    tail_ms: f64,
    windows: Vec<Tail>,
    goodput_rps: f64,
}

fn rate_stats(rounds: &[Vec<Rung>], i: usize) -> RateStats {
    let rungs: Vec<&Rung> = rounds.iter().map(|l| &l[i]).collect();
    let pooled: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    let windows: Vec<Tail> = rungs
        .iter()
        .flat_map(|r| {
            let v = &r.latency_ms;
            if v.len() < TAIL_WINDOW {
                vec![tail(v)]
            } else {
                v.chunks_exact(TAIL_WINDOW).map(tail).collect()
            }
        })
        .collect();
    RateStats {
        rate: RATES[i],
        p50_ms: median(&pooled),
        tail_ms: median(&pick(&windows, |t| t.value)),
        goodput_rps: median(&pick(&rungs, |r| r.goodput_rps())),
        windows,
    }
}

impl RateStats {
    /// The tail latency from due time is within the limit. Failed requests
    /// count as infinitely late, and a backlog that grows shows as deadline
    /// sheds, so either pushes the tail over.
    fn meets_limit(&self) -> bool {
        self.tail_ms <= LIMIT.as_secs_f64() * 1e3
    }

    fn json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("rate", JsonValue::Number(self.rate)),
            ("p50_ms", finite(self.p50_ms)),
            ("tail_ms", finite(self.tail_ms)),
            (
                "window_tails",
                JsonValue::Array(self.windows.iter().map(|&t| tail_json(t)).collect()),
            ),
            ("goodput_rps", JsonValue::Number(self.goodput_rps)),
            ("meets_limit", JsonValue::Bool(self.meets_limit())),
        ])
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn pick<T>(v: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    v.iter().map(f).collect()
}

struct LayerInputs<'a> {
    dims: Dims,
    dep: &'a Deployment,
    stack_phase: Phase,
    spans: &'a [Span],
    costs: &'a [model::SetupCost],
    /// Serve rounds, each the whole rate ladder.
    served: &'a [Vec<Rung>],
    host: (f64, f64),
}

fn per_layer_metrics(x: &LayerInputs<'_>, overhead: f64) -> Result<Vec<Metric>> {
    let (root, stack, rows) = match x.stack_phase {
        Phase::Prefill => ("prefill.pass", &x.dep.prefill, x.dims.prompt_rows),
        Phase::Decode => ("decode.step", x.dep.decode_stack(), 1),
    };
    let roots: std::collections::HashSet<u64> = x
        .spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    let passes = roots.len().max(1) as f64;
    let blocks: Vec<&Span> = x
        .spans
        .iter()
        .filter(|s| s.name == "block" && s.parent.is_some_and(|p| roots.contains(&p)))
        .collect();
    let block_ids: std::collections::HashSet<u64> = blocks.iter().map(|s| s.id).collect();
    let self_ns = trace::self_times_ns(x.spans);
    let (triad, fma) = x.host;

    let mut out = Vec::new();
    for (p, name) in PROJECTIONS.iter().enumerate() {
        let span_name = format!("kernel.{name}");
        let calls: Vec<&Span> = x
            .spans
            .iter()
            .filter(|s| s.name == span_name && s.parent.is_some_and(|b| block_ids.contains(&b)))
            .collect();
        let secs = calls.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / 1e9;
        let layer = &stack[0][p];
        let (k, n) = x.dims.shape(p);
        let flops = x.dims.flops(p, rows);
        // Bytes from tensor sizes: staged values and offsets, activations
        // in, outputs out.
        let bytes = (model::staged_bytes(layer) + 4 * rows * (k + n)) as f64;
        let ncalls = calls.len() as f64;
        let gflops = flops * ncalls / secs / 1e9;
        let roof = fma.min(triad * flops / bytes);
        out.push(metric(
            &format!("kernel.{name}.ms"),
            secs * 1e3 / passes,
            "ms",
        ));
        out.push(metric(&format!("kernel.{name}.gflops"), gflops, "GFLOP/s"));
        out.push(metric(
            &format!("kernel.{name}.gbps"),
            bytes * ncalls / secs / 1e9,
            "GB/s",
        ));
        out.push(metric(
            &format!("kernel.{name}.roofline_frac"),
            gflops / roof,
            "ratio",
        ));
        let predicted = layer.plan().best()?.seconds * 1e3 * x.dims.blocks as f64;
        out.push(metric(&format!("sim.{name}.predicted_ms"), predicted, "ms"));
    }
    let block_ns: f64 = blocks.iter().map(|s| s.duration_ns() as f64).sum();
    let glue_ns: f64 = blocks.iter().map(|s| self_ns[&s.id] as f64).sum();
    out.push(metric("block.ms", block_ns / 1e6 / passes, "ms"));
    out.push(metric("block.glue_ms", glue_ns / 1e6 / passes, "ms"));

    let last = x.costs.last().expect("at least one set-up ran");
    out.push(metric(
        "core.deserialize_s",
        median(&pick(x.costs, |c| c.deserialize_s)),
        "s",
    ));
    out.push(metric(
        "session.load_s.prefill",
        median(&pick(x.costs, |c| c.load_prefill_s)),
        "s",
    ));
    out.push(metric(
        "session.load_s.decode",
        median(&pick(x.costs, |c| c.load_decode_s)),
        "s",
    ));
    out.push(metric("plan.cache_hits", last.cache_hits as f64, "count"));
    out.push(metric(
        "plan.cache_misses",
        last.cache_misses as f64,
        "count",
    ));
    out.push(metric(
        "measure.passes",
        last.measure_passes as f64,
        "count",
    ));
    out.push(metric("stage.passes", last.staging_passes as f64, "count"));
    out.push(metric("stage.bytes", x.dep.staged_bytes() as f64, "bytes"));

    let nominal: Vec<&Rung> = x.served.iter().map(|l| &l[NOMINAL]).collect();
    let pooled = |f: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        nominal.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let queue_wait = pooled(|r| &r.queue_wait_ms);
    out.push(metric("serve.queue_wait_p50_ms", median(&queue_wait), "ms"));
    out.push(metric(
        "serve.queue_wait_tail_ms",
        tail(&queue_wait).value,
        "ms",
    ));
    out.push(metric(
        "serve.compute_p50_ms",
        median(&pooled(|r| &r.compute_ms)),
        "ms",
    ));
    let batches: Vec<usize> = nominal
        .iter()
        .flat_map(|r| r.batch_sizes.iter().copied())
        .collect();
    let batch_mean = batches.iter().sum::<usize>() as f64 / batches.len().max(1) as f64;
    out.push(metric("serve.batch_mean", batch_mean, "requests"));
    let all = || x.served.iter().flatten();
    out.push(metric(
        "serve.shed",
        all().map(|r| r.shed).sum::<u64>() as f64,
        "count",
    ));
    out.push(metric(
        "serve.rejected",
        all().map(|r| r.rejected).sum::<u64>() as f64,
        "count",
    ));
    let late: Vec<f64> = all().flat_map(|r| r.late_ms.iter().copied()).collect();
    out.push(metric("loadgen.late_tail_ms", tail(&late).value, "ms"));
    out.push(metric("host.triad_gbps", triad, "GB/s"));
    out.push(metric("host.fma_gflops", fma, "GFLOP/s"));
    out.push(metric("trace.overhead_ratio", overhead, "ratio"));
    Ok(out)
}

/// `count` distinct indices in `0..n`, chosen by the seed.
fn sample_distinct(seed: u64, stream: u64, count: usize, n: usize) -> Vec<usize> {
    let mut r = model::SplitMix::new(model::derive_seed(seed, stream, 0));
    let mut out: Vec<usize> = Vec::new();
    while out.len() < count.min(n) {
        let i = (r.next_u64() % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

fn header(
    cfg: &Config,
    dep: &Deployment,
    isa: &str,
    nproc: usize,
    llc: usize,
    triad_array: usize,
) -> JsonValue {
    let mut plans = Vec::new();
    let stacks = [
        ("prefill", Some(&dep.prefill)),
        ("decode", dep.decode.as_ref()),
    ];
    for (name, stack) in stacks {
        if let Some(stack) = stack {
            for (p, proj) in PROJECTIONS.iter().enumerate() {
                plans.push(model::describe_plan(name, proj, &stack[0][p]));
            }
        }
    }
    plans.push(model::describe_plan("served", "gate", dep.server.layer()));
    let d = cfg.dims;
    JsonValue::object(vec![
        ("schema", JsonValue::Number(SCHEMA as f64)),
        ("git_rev", JsonValue::String(git_rev())),
        ("isa", JsonValue::from_str_value(isa)),
        ("threads", JsonValue::from_usize(dep.threads)),
        ("nproc", JsonValue::from_usize(nproc)),
        ("llc_bytes", JsonValue::from_usize(llc)),
        ("triad_array_bytes", JsonValue::from_usize(triad_array)),
        ("workload", JsonValue::from_str_value(cfg.workload.name())),
        ("seed", JsonValue::Number(cfg.seed as f64)),
        ("seconds", JsonValue::Number(cfg.seconds)),
        ("trace", JsonValue::Bool(cfg.trace)),
        (
            "dims",
            JsonValue::object(vec![
                ("hidden", JsonValue::from_usize(d.hidden)),
                ("ffn", JsonValue::from_usize(d.ffn)),
                ("blocks", JsonValue::from_usize(d.blocks)),
                ("prompt_rows", JsonValue::from_usize(d.prompt_rows)),
            ]),
        ),
        ("staged_bytes", JsonValue::from_usize(dep.staged_bytes())),
        (
            "kernel_bytes",
            JsonValue::from_str_value(
                "computed from tensor sizes: staged values + offsets + activations + outputs",
            ),
        ),
        (
            "tolerance",
            JsonValue::from_str_value(&format!(
                "|got - spmm_reference| <= {} + {} * |spmm_reference|",
                model::ATOL,
                model::RTOL
            )),
        ),
        ("plans", JsonValue::Array(plans)),
    ])
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` in a checkout without one.
fn git_rev() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn numbers(v: &[f64]) -> JsonValue {
    JsonValue::Array(v.iter().map(|&x| JsonValue::Number(x)).collect())
}

fn finite(x: f64) -> JsonValue {
    JsonValue::Number(if x.is_finite() { x } else { f64::MAX })
}

fn tail_json(t: Tail) -> JsonValue {
    JsonValue::object(vec![
        ("value", finite(t.value)),
        ("percentile", JsonValue::Number(t.percentile)),
        ("samples", JsonValue::from_usize(t.samples)),
    ])
}
