//! Codegen lane: generate, validate and execute the WGSL kernels for
//! the acceptance matrix (kernel family × shape band),
//! recording shader statistics, interpreter wall clocks against the V3
//! CPU oracle, and the three parity verdicts per cell.
//!
//! ```sh
//! # Full sweep (~seconds):
//! cargo run --release -p nm-bench --bin bench_codegen
//!
//! # CI gate: fail (exit 1) unless every cell validates, is
//! # bit-identical to cpu_v3, and phase-matches the simulated trace:
//! cargo run --release -p nm-bench --bin bench_codegen -- \
//!     --quick --assert-parity --out BENCH_codegen.json
//! ```
//!
//! Exit codes: `0` success, `1` an `--assert-parity` gate failure,
//! `2` usage / I/O failure — including a malformed `NM_SPMM_ISA` or one
//! this host cannot execute.

use gpu_sim::device::a100_80g;
use nm_bench::TextTable;
use nm_core::json::JsonValue;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;
use nm_gpu::ShaderStats;
use nm_kernels::codegen::CodegenPrepared;
use nm_kernels::plan::{KernelChoice, Plan, Planner, ShapeClass};
use nm_kernels::{CpuPrepared, MicroKernel};
use std::sync::Arc;
use std::time::Instant;

/// One matrix cell's outcome.
struct Cell {
    name: String,
    family: &'static str,
    m: usize,
    k: usize,
    n: usize,
    stats: ShaderStats,
    validated: bool,
    bit_identical: bool,
    phase_match: bool,
    interp_ms: f64,
    cpu_ms: f64,
}

impl Cell {
    fn passed(&self) -> bool {
        self.validated && self.bit_identical && self.phase_match
    }

    fn json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::from_str_value(&self.name)),
            ("family", JsonValue::from_str_value(self.family)),
            ("m", JsonValue::from_usize(self.m)),
            ("k", JsonValue::from_usize(self.k)),
            ("n", JsonValue::from_usize(self.n)),
            ("wgsl_lines", JsonValue::from_usize(self.stats.lines)),
            ("ir_nodes", JsonValue::from_usize(self.stats.nodes)),
            (
                "threads",
                JsonValue::from_usize(self.stats.threads as usize),
            ),
            (
                "shared_bytes",
                JsonValue::from_usize(self.stats.shared_bytes),
            ),
            (
                "double_buffered",
                JsonValue::Bool(self.stats.double_buffered),
            ),
            ("validated", JsonValue::Bool(self.validated)),
            ("bit_identical", JsonValue::Bool(self.bit_identical)),
            ("phase_match", JsonValue::Bool(self.phase_match)),
            ("interp_ms", JsonValue::Number(self.interp_ms)),
            ("cpu_ms", JsonValue::Number(self.cpu_ms)),
        ])
    }
}

/// Run one `(plan, operand, rows)` cell: prepare (lower + emit +
/// validate), execute through the interpreter, compare with `cpu_v3`,
/// compare phase structures.
fn run_cell(plan: &Plan, sb: NmSparseMatrix, m: usize, seed: u64) -> Cell {
    let (dev, sb) = (a100_80g(), &Arc::new(sb));
    let a = MatrixF32::random(m, sb.k(), seed);
    let prep =
        CodegenPrepared::new(plan, sb, None).expect("codegen preparation (lower/emit/validate)");
    // `prepare` already gates on the validator; collecting stats re-runs
    // it on the emitted text, so `validated` reports the emission.
    let stats = ShaderStats::collect(prep.ir(), prep.wgsl());
    let validated = stats.is_ok();
    let stats = stats.unwrap_or_else(|e| panic!("{}: {e}", prep.spec().name()));

    let t0 = Instant::now();
    let (c, trace) = prep.execute(&a).expect("interpret");
    let interp_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let cpu = CpuPrepared::for_plan(plan, sb, None)
        .and_then(|state| state.run(&a))
        .expect("cpu_v3");
    let cpu_ms = t1.elapsed().as_secs_f64() * 1e3;

    let bit_identical = c.as_slice() == cpu.c.as_slice();
    let (ours, sim) = prep.phase_parity(&dev, &trace, m).expect("phase parity");
    Cell {
        name: prep.spec().name(),
        family: prep.spec().family.name(),
        m,
        k: sb.k(),
        n: sb.cols(),
        stats,
        validated,
        bit_identical,
        phase_match: ours.matches(&sim),
        interp_ms,
        cpu_ms,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_codegen [--quick] [--assert-parity] [--out FILE] [--seed N]\n\
         \x20  --quick          smaller shapes (CI smoke)\n\
         \x20  --assert-parity  exit 1 unless every cell validates, matches cpu_v3\n\
         \x20                   bit for bit, and phase-matches the simulator\n\
         \x20  --out FILE       artifact path (default BENCH_codegen.json)\n\
         \x20  --seed N         operand seed (default 42)"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut assert_parity = false;
    let mut out = String::from("BENCH_codegen.json");
    let mut seed = 42u64;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--assert-parity" => assert_parity = true,
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

    // Resolve the micro-kernel before any work, so a malformed
    // NM_SPMM_ISA is a usage error (exit 2) rather than a panic mid-sweep.
    if let Err(e) = MicroKernel::select() {
        eprintln!("micro-kernel selection failed: {e}");
        std::process::exit(2);
    }

    let cfg = NmConfig::new(2, 8, 16).expect("2:8:16");
    // Ragged prefill shapes plus the one-row decode band.
    let prefill: &[(usize, usize, usize)] = if quick {
        &[(13, 112, 72)]
    } else {
        &[(9, 80, 100), (13, 112, 72), (33, 200, 144)]
    };
    let ladder = [
        (KernelChoice::NmV1, "v1"),
        (KernelChoice::NmV2, "v2"),
        (KernelChoice::NmV3, "v3"),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (choice, _) in ladder {
        for (ci, &(m, k, n)) in prefill.iter().enumerate() {
            let sb = NmSparseMatrix::prune_magnitude(
                &MatrixF32::random(k, n, seed ^ (0x100 + ci as u64)),
                cfg,
            )
            .expect("prune");
            let mut plan = Planner::new(a100_80g())
                .plan_as(ShapeClass::Prefill, m, n, k, cfg)
                .expect("plan");
            plan.choice = choice;
            cells.push(run_cell(&plan, sb, m, seed ^ (0x200 + ci as u64)));
        }
    }
    // The skinny decode family at m = 1, on the largest shape.
    let &(_, k, n) = prefill.last().expect("shapes");
    let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, seed ^ 0x300), cfg)
        .expect("prune");
    let plan = Planner::new(a100_80g())
        .plan_as(ShapeClass::Decode(1), 1, n, k, cfg)
        .expect("decode plan");
    cells.push(run_cell(&plan, sb, 1, seed ^ 0x400));

    let mut table = TextTable::new(&[
        "kernel",
        "shape",
        "lines",
        "smem B",
        "interp ms",
        "cpu ms",
        "verdict",
    ]);
    for c in &cells {
        table.row(&[
            c.family.to_string(),
            format!("{}x{}x{}", c.m, c.k, c.n),
            c.stats.lines.to_string(),
            c.stats.shared_bytes.to_string(),
            format!("{:.3}", c.interp_ms),
            format!("{:.3}", c.cpu_ms),
            if c.passed() {
                "ok".into()
            } else {
                format!(
                    "FAIL(valid={} bits={} phase={})",
                    c.validated, c.bit_identical, c.phase_match
                )
            },
        ]);
    }
    table.print();

    let failures = cells.iter().filter(|c| !c.passed()).count();
    println!(
        "{} cells, {} passed, {} failed",
        cells.len(),
        cells.len() - failures,
        failures
    );

    let doc = JsonValue::object(vec![
        ("schema", JsonValue::from_str_value("codegen-v1")),
        ("quick", JsonValue::Bool(quick)),
        ("seed", JsonValue::from_usize(seed as usize)),
        (
            "cells",
            JsonValue::Array(cells.iter().map(Cell::json).collect()),
        ),
        (
            "gate",
            JsonValue::object(vec![
                ("total", JsonValue::from_usize(cells.len())),
                ("failed", JsonValue::from_usize(failures)),
            ]),
        ),
    ]);
    let json = doc.dump().expect("artifact serializes");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("writing {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");

    if assert_parity {
        if failures > 0 {
            eprintln!("GATE FAIL: {failures} cell(s) broke the parity contract");
            std::process::exit(1);
        }
        println!("parity gate passed ({} cells)", cells.len());
    }
}
