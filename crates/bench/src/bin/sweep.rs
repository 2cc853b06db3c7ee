//! Generic sweep CLI: estimate any problem on any modeled device, or sweep
//! a whole Llama model's layers, all through the unified planner/engine.
//!
//! ```sh
//! # One shape, four sparsity levels (auto-tuned plans):
//! cargo run --release -p nm-bench --bin sweep -- \
//!     --m 2048 --n 11008 --k 4096 --device a100 --tune
//!
//! # Batched layer sweep of a whole model, with a persistent plan cache:
//! cargo run --release -p nm-bench --bin sweep -- \
//!     --llama 7b --seq 2048 --device a100 --cache plans.json
//! ```
//!
//! Every kernel choice comes from [`Session::plan`] — strategy decision
//! plus exhaustive autotune, memoized per `(device, shape class, N:M)`
//! key — and every execution goes through a prepared layer
//! handle ([`Session::load_planned`]). With `--cache PATH` the memo is
//! loaded at startup and saved on exit, so the second run of an identical
//! sweep performs zero tuning searches (the cache accounting printed at
//! the end proves it).

use gpu_sim::device::{a100_80g, a100_ncu_locked, rtx3090, rtx4090, DeviceConfig};
use gpu_sim::energy;
use nm_bench::{pct, spd, TextTable};
use nm_kernels::{AutotuneMode, BackendKind, NmSpmmKernel, NmVersion, Session, SessionBuilder};
use nm_workloads::gen::{ProblemInstance, ProblemSpec};
use nm_workloads::levels::{benchmark_levels, label};
use nm_workloads::llama::LLAMA_FAMILY;
use nm_workloads::sweep::{sweep_model, ExecutePolicy, SweepOptions};

struct Args {
    m: usize,
    n: usize,
    k: usize,
    shape_given: bool,
    device: DeviceConfig,
    tune: bool,
    llama: Option<&'static str>,
    seq: usize,
    cache: Option<String>,
    exec: bool,
    decode: bool,
    autotune: Option<AutotuneMode>,
}

const USAGE: &str = "usage: sweep [--m N] [--n N] [--k N] [--device a100|a100-locked|3090|4090] \
                     [--tune] [--llama 7b|13b|30b|65b] [--seq N] [--cache PATH] [--exec] \
                     [--decode] [--autotune off|quick|full]";

/// Print `msg` and the usage line, then exit 2 — the one way a bad
/// command line ends.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after the flag at `argv[i]`, converted by `parse`; a
/// missing or rejected value is a usage error.
fn flag_value<T>(argv: &[String], i: usize, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    let flag = &argv[i];
    let Some(value) = argv.get(i + 1) else {
        usage_error(&format!("{flag} takes a value"))
    };
    parse(value).unwrap_or_else(|e| usage_error(&format!("{flag} {value}: {e}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        m: 4096,
        n: 4096,
        k: 4096,
        shape_given: false,
        device: a100_80g(),
        tune: false,
        llama: None,
        seq: 2048,
        cache: None,
        exec: false,
        decode: false,
        autotune: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let number = |v: &str| v.parse::<usize>().map_err(|e| e.to_string());
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--m" => {
                args.m = flag_value(&argv, i, number);
                args.shape_given = true;
                i += 2;
            }
            "--n" => {
                args.n = flag_value(&argv, i, number);
                args.shape_given = true;
                i += 2;
            }
            "--k" => {
                args.k = flag_value(&argv, i, number);
                args.shape_given = true;
                i += 2;
            }
            "--seq" => {
                args.seq = flag_value(&argv, i, number);
                i += 2;
            }
            "--device" => {
                args.device = flag_value(&argv, i, |v| match v {
                    "a100" => Ok(a100_80g()),
                    "a100-locked" => Ok(a100_ncu_locked()),
                    "3090" => Ok(rtx3090()),
                    "4090" => Ok(rtx4090()),
                    other => Err(format!(
                        "unknown device '{other}' (a100|a100-locked|3090|4090)"
                    )),
                });
                i += 2;
            }
            "--llama" => {
                args.llama = Some(flag_value(&argv, i, |v| match v {
                    "7b" => Ok("Llama-7B"),
                    "13b" => Ok("Llama-13B"),
                    "30b" => Ok("Llama-30B"),
                    "65b" => Ok("Llama-65B"),
                    other => Err(format!("unknown model '{other}' (7b|13b|30b|65b)")),
                }));
                i += 2;
            }
            "--cache" => {
                args.cache = Some(flag_value(&argv, i, |v| Ok(v.to_string())));
                i += 2;
            }
            "--tune" => {
                args.tune = true;
                i += 1;
            }
            "--exec" => {
                args.exec = true;
                i += 1;
            }
            "--decode" => {
                args.decode = true;
                i += 1;
            }
            "--autotune" => {
                // Validated like NM_SPMM_ISA: an unrecognized mode is a
                // structured usage error, never a silent fall-back to off.
                args.autotune = Some(flag_value(&argv, i, |v| {
                    AutotuneMode::from_name(v).map_err(|e| e.to_string())
                }));
                i += 2;
            }
            other => usage_error(&format!("unknown flag '{other}'")),
        }
    }
    args
}

fn make_session(args: &Args) -> Session {
    let mut builder = SessionBuilder::new(args.device.clone());
    if let Some(path) = &args.cache {
        builder = builder.plan_cache(path);
    }
    // The flag wins over NM_SPMM_AUTOTUNE; either way an unrecognized
    // mode exits 2 with a structured error instead of silently running
    // without measurement.
    let autotune = match args.autotune {
        Some(mode) => mode,
        None => match AutotuneMode::from_env() {
            Ok(mode) => mode.unwrap_or_default(),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    // Build errors are user errors here (e.g. a malformed NM_SPMM_STORAGE
    // or NM_SPMM_ISA pin): report and exit 2, same as the autotune path.
    let session = match builder.autotune(autotune).build() {
        Ok(session) => session,
        Err(e) => {
            eprintln!("cannot build session: {e}");
            std::process::exit(2);
        }
    };
    if autotune != AutotuneMode::Off {
        println!("measured autotune: {autotune} (scaled executions run the evidence-based lane)");
    }
    if let Some(path) = &args.cache {
        println!(
            "plan cache: {} ({} entries loaded)\n",
            path,
            session.stats().entries
        );
    }
    session
}

fn finish(session: &Session) {
    println!("\nplan cache: {}", session.stats());
    match session.save() {
        Ok(true) => println!("plan cache saved"),
        Ok(false) => {}
        Err(e) => eprintln!("warning: failed to save plan cache: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let mut session = make_session(&args);
    if let Some(model_name) = args.llama {
        // Model mode takes its shapes from the model and always tunes.
        if args.shape_given {
            eprintln!("warning: --m/--n/--k are ignored with --llama (shapes come from the model; use --seq for the sequence length)");
        }
        if args.tune {
            eprintln!(
                "warning: --tune is ignored with --llama (engine plans are always auto-tuned)"
            );
        }
        llama_sweep(&args, &mut session, model_name);
    } else {
        shape_sweep(&args, &mut session);
    }
    finish(&session);
}

/// Batched layer sweep of one Llama model across the benchmark levels.
fn llama_sweep(args: &Args, session: &mut Session, model_name: &str) {
    let model = LLAMA_FAMILY
        .iter()
        .find(|m| m.name == model_name)
        .expect("known model");
    let opts = SweepOptions {
        seq_len: args.seq,
        execute: if args.exec {
            ExecutePolicy::Scaled(8)
        } else {
            ExecutePolicy::EstimateOnly
        },
        decode: args.decode,
        ..Default::default()
    };
    println!(
        "== layer sweep: {} (h={}, f={}), m={} on {} ==\n",
        model.name,
        model.hidden,
        model.intermediate,
        args.seq,
        session.device().name
    );
    for cfg in benchmark_levels() {
        let report = sweep_model(session, model, cfg, &opts).expect("sweep");
        println!("-- {} --", label(&cfg));
        let mut t = TextTable::new(&[
            "layer", "n", "k", "kernel", "blocking", "packing", "est ms", "dense ms", "speedup",
            "cached",
        ]);
        for l in &report.layers {
            let p = l.plan.params;
            t.row(&[
                l.layer.to_string(),
                l.n.to_string(),
                l.k.to_string(),
                l.plan.choice.to_string(),
                format!("{}x{} mt{}xnt{}", p.ms, p.ns, p.mt, p.nt),
                if l.plan.decision.packing { "yes" } else { "no" }.to_string(),
                format!("{:.3}", l.est_ms),
                format!("{:.3}", l.dense_ms),
                spd(l.speedup()),
                if l.cache_hit { "hit" } else { "miss" }.to_string(),
            ]);
        }
        t.print();
        if args.exec {
            let mut t = TextTable::new(&[
                "layer",
                "exec shape",
                "CPU ms",
                "CPU dense ms",
                "measured ms",
                "|sim-cpu|",
            ]);
            for l in &report.layers {
                if let Some(e) = l.exec {
                    t.row(&[
                        l.layer.to_string(),
                        format!("{}x{}x{}", e.m, e.n, e.k),
                        format!("{:.1}", e.cpu_ms),
                        format!("{:.1}", e.cpu_dense_ms),
                        e.measured_ms
                            .map(|ms| format!("{ms:.1}"))
                            .unwrap_or_else(|| "-".into()),
                        format!("{:.2e}", e.sim_vs_cpu_max_diff),
                    ]);
                }
            }
            t.print();
        }
        if args.decode {
            // The decode lane: per-layer estimates at the generation
            // batch sizes, planned under ShapeClass::Decode keys.
            let mut t = TextTable::new(&[
                "layer",
                "m=1 ms",
                "m=2 ms",
                "m=4 ms",
                "m=8 ms",
                "decode ms",
                "format",
                "cached",
            ]);
            for l in &report.layers {
                let est = |batch: usize| {
                    l.decode
                        .iter()
                        .find(|d| d.batch == batch)
                        .map_or("-".to_string(), |d| format!("{:.4}", d.est_ms))
                };
                t.row(&[
                    l.layer.to_string(),
                    est(1),
                    est(2),
                    est(4),
                    est(8),
                    l.exec
                        .and_then(|e| e.decode_ms)
                        .map_or("-".to_string(), |ms| format!("{ms:.3}")),
                    l.decode.first().map_or("-".to_string(), |d| d.format.tag()),
                    if l.decode.iter().all(|d| d.cache_hit) {
                        "hit"
                    } else {
                        "miss"
                    }
                    .to_string(),
                ]);
            }
            println!("-- decode lanes ({}) --", label(&cfg));
            t.print();
        }
        println!(
            "model total: {:.3} ms sparse vs {:.3} ms dense = {} ({} hits / {} misses)\n",
            report.total_est_ms(),
            report.total_dense_ms(),
            spd(report.total_speedup()),
            report.cache_hits,
            report.cache_misses,
        );
    }
}

/// Single-shape sweep across the benchmark levels.
fn shape_sweep(args: &Args, session: &mut Session) {
    let (m, n, k) = (args.m, args.n, args.k);
    println!(
        "== sweep: m={m} n={n} k={k} on {} ==\n",
        session.device().name
    );

    let dense = session
        .plan(m, n, k, benchmark_levels()[0])
        .expect("plan")
        .estimates
        .dense;
    println!(
        "dense baseline: {:.3} ms, {:.2} TFLOPS ({})\n",
        dense.seconds * 1e3,
        dense.tflops,
        pct(dense.efficiency)
    );

    let mut t = TextTable::new(&[
        "sparsity",
        "kernel",
        "time ms",
        "TFLOPS",
        "eff",
        "bound",
        "speedup",
        "energy mJ",
        "GF/J",
    ]);
    for cfg in benchmark_levels() {
        let plan = session.plan(m, n, k, cfg).expect("plan");
        let best = plan.best().expect("planner-built plans carry an estimate");
        // Energy needs event counts: small problems take the chosen
        // kernel's predicted counts from a prepared Sim-backend handle;
        // large shapes skip it (the estimate covers time).
        let spec = ProblemSpec { m, n, k, cfg };
        let e = if m * n <= 512 * 512 {
            let inst = ProblemInstance::generate(spec, 1);
            let layer = session
                .load_planned(plan.clone(), inst.b_sparse.clone(), BackendKind::Sim)
                .expect("prepare");
            let run = layer.forward(&inst.a).expect("run");
            let stats = run.stats.expect("sim backend counts events");
            let report = run.report.expect("sim backend reports timing");
            Some(energy::estimate(session.device(), &stats, &report))
        } else {
            None
        };
        t.row(&[
            label(&cfg),
            plan.choice.to_string(),
            format!("{:.3}", best.seconds * 1e3),
            format!("{:.2}", best.tflops),
            pct(best.efficiency),
            format!("{:?}", plan.decision.predicted_bound),
            spd(plan
                .speedup_vs_dense()
                .expect("planner-built plans carry an estimate")),
            e.map(|e| format!("{:.2}", e.total_j() * 1e3))
                .unwrap_or("-".into()),
            e.map(|e| format!("{:.0}", e.gflops_per_joule(spec.useful_flops())))
                .unwrap_or("-".into()),
        ]);
    }
    t.print();

    if args.tune {
        println!("\n== auto-tuned blocking vs Table I preset (V3) ==\n");
        let mut t = TextTable::new(&["sparsity", "preset", "tuned", "tuned params", "gain"]);
        for cfg in benchmark_levels() {
            let plan = session.plan(m, n, k, cfg).expect("plan");
            let preset = NmSpmmKernel::auto(NmVersion::V3, m, n)
                .estimate(session.device(), m, n, k, cfg, None)
                .expect("preset");
            let tuned = plan.estimates.nm_v3.expect("nm estimate");
            let p = plan.params;
            t.row(&[
                label(&cfg),
                format!("{:.3} ms", preset.seconds * 1e3),
                format!("{:.3} ms", tuned.seconds * 1e3),
                format!("{}x{} mt{}xnt{}", p.ms, p.ns, p.mt, p.nt),
                format!("{:+.1}%", 100.0 * (preset.seconds / tuned.seconds - 1.0)),
            ]);
        }
        t.print();
    }
}
