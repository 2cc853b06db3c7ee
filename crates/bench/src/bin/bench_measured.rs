//! Measured-performance harness: the native CPU V1→V3 ladder against the
//! scalar reference, on real wall clocks.
//!
//! Unlike the other bins (which regenerate the paper's figures from the
//! *timing model*), this one executes every kernel for real through the
//! [`nm_kernels::backend`] subsystem, cross-checks the numerics, and emits
//! a `BENCH_pr.json` trajectory file — the repo's measured performance
//! record, consumed by the `perf-smoke` CI gate.
//!
//! ```sh
//! # Full sweep (Fig. 7 / Table II shapes, ~a minute of CPU time):
//! cargo run --release -p nm-bench --bin bench_measured
//!
//! # CI smoke: small shapes, compare against the checked-in baseline and
//! # fail on any >25% regression of a kernel's speedup-vs-reference
//! # (a machine-neutral ratio — absolute GFLOP/s differ across runners):
//! cargo run --release -p nm-bench --bin bench_measured -- \
//!     --quick --out BENCH_pr.json --check-against BENCH_baseline.json
//! ```
//!
//! Exit codes: `0` success, `1` regression against the baseline or an
//! `--assert-ab` failure, `2` usage / numeric-mismatch / I/O failure —
//! including a `--threshold` outside the open interval `(0, 1)`, an
//! `NM_SPMM_ISA` override this host cannot execute, and an unrecognized
//! `--autotune` / `NM_SPMM_AUTOTUNE` mode.
//!
//! The run records which micro-kernel ISA the CPU ladder dispatched to
//! (top-level `isa` field plus one per CPU kernel entry in the JSON);
//! `NM_SPMM_FORCE_SCALAR=1` forces the scalar tile so CI can A/B the SIMD
//! and scalar paths on the same host.
//!
//! ## The plan A/B lane
//!
//! With `--autotune quick|full` (or `NM_SPMM_AUTOTUNE`), every shape also
//! runs the **evidence-based** path — `Session::load` under measured
//! autotuning, which short-run-benchmarks V3 tilings × storage formats
//! in place and prepares V3 on the measured winner — next to the
//! cost-model default (V3 at the derived tiling). Both lanes land in the
//! JSON under `plan_ab`, and `--assert-ab` turns the comparison into a
//! gate: on the 512³ prefill shapes a Quick grid holds only the derived
//! tiling, so the measured path must cost nothing against the static
//! default.
//!
//! ## The decode lane
//!
//! Skinny shapes (`m ∈ {1, 2, 4, 8}`) ride along with every sweep and
//! report **effective GB/s** next to GFLOP/s — at decode batch sizes the
//! product is bandwidth-bound, so bytes of compressed-operand traffic per
//! second is the honest axis. On `m = 1` shapes the scalar `reference`
//! lane (no staging, no SIMD) doubles as a rival, next to the 4-row GEMM
//! tile forced onto the one-row input. Every decode shape also times the **storage-format
//! rivals** head to head — the V3 preparation staged row-major
//! (`cpu_v3`) versus staged SELL-C-σ sliced (`cpu_v3_sliced`) — and
//! reports each format's compressed-operand bytes. `--decode` runs the
//! decode set alone and gates it (measured plans must hold against
//! *both* format lanes, and the prepared SpMV path must beat both
//! rivals); CI writes that run to `BENCH_decode.json`.

use gpu_sim::device::a100_80g;
use nm_bench::{spd, TextTable};
use nm_core::index::IndexLayout;
use nm_core::json::JsonValue;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::prune::PrunePolicy;
use nm_core::sliced::{SlicedLayout, StorageFormat};
use nm_core::sparse::NmSparseMatrix;
use nm_core::spmm::spmm_reference;
use nm_kernels::{
    AutotuneMode, BackendKind, CpuTiling, Isa, LoadSpec, MicroKernel, NmVersion, Session,
    SessionBuilder, ShapeClass, DECODE_MAX_ROWS,
};
use std::time::Instant;

/// One benchmarked problem.
struct Shape {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    cfg: NmConfig,
}

fn cfg(n: usize, m: usize) -> NmConfig {
    NmConfig::new(n, m, 32).expect("valid config")
}

/// The full sweep: Fig. 7's 4096³ square at the acceptance sparsity plus a
/// spread of Table II sizes and one Llama-proportioned projection.
fn full_shapes() -> Vec<Shape> {
    vec![
        Shape {
            label: "A-512-50",
            m: 512,
            n: 512,
            k: 512,
            cfg: cfg(8, 16),
        },
        Shape {
            label: "A-512-75",
            m: 512,
            n: 512,
            k: 512,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "A-512-87",
            m: 512,
            n: 512,
            k: 512,
            cfg: cfg(2, 16),
        },
        Shape {
            label: "C-2048-75",
            m: 512,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "D-2048-87",
            m: 1024,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 16),
        },
        Shape {
            label: "llama-proj-75",
            m: 512,
            n: 4096,
            k: 4096,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "F-4096-75",
            m: 4096,
            n: 4096,
            k: 4096,
            cfg: cfg(2, 8),
        },
    ]
}

/// The CI smoke sweep: seconds, not minutes.
fn quick_shapes() -> Vec<Shape> {
    vec![
        Shape {
            label: "A-512-75",
            m: 512,
            n: 512,
            k: 512,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "quick-768-87",
            m: 256,
            n: 768,
            k: 768,
            cfg: cfg(2, 16),
        },
        Shape {
            label: "quick-512-50",
            m: 256,
            n: 512,
            k: 512,
            cfg: cfg(8, 16),
        },
    ]
}

/// The decode sweep: skinny activation shapes (`m ≤` [`DECODE_MAX_ROWS`])
/// at the acceptance sparsity, where the product is bandwidth-bound and
/// the interesting metric is GB/s of compressed-operand traffic, not
/// GFLOP/s. `m = 1` shapes additionally run a forced 4-row GEMM tile as
/// a rival (see [`bench_shape`]). These shapes
/// ride along in full mode and stand alone under `--decode`.
fn decode_shapes(quick: bool) -> Vec<Shape> {
    if quick {
        return vec![
            Shape {
                label: "decode-1-512-75",
                m: 1,
                n: 512,
                k: 512,
                cfg: cfg(2, 8),
            },
            Shape {
                label: "decode-8-512-75",
                m: 8,
                n: 512,
                k: 512,
                cfg: cfg(2, 8),
            },
        ];
    }
    let mut shapes = vec![
        Shape {
            label: "decode-1-2048-75",
            m: 1,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "decode-2-2048-75",
            m: 2,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "decode-4-2048-75",
            m: 4,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 8),
        },
        Shape {
            label: "decode-8-2048-75",
            m: 8,
            n: 2048,
            k: 2048,
            cfg: cfg(2, 8),
        },
    ];
    shapes.push(Shape {
        label: "llama-decode-75",
        m: 1,
        n: 4096,
        k: 4096,
        cfg: cfg(2, 8),
    });
    shapes
}

/// Useful memory traffic of one decode-shape product, in bytes: the
/// compressed operand (`4·w·n` value bytes + `w·q` one-byte offsets) plus
/// the activation read (`4·m·k`) and the result write (`4·m·n`). At
/// `m ≤ 8` the product is bandwidth-bound — every B′ value is used at
/// most `m` times — so effective GB/s against this traffic is the honest
/// throughput axis; GFLOP/s is reported alongside for continuity.
fn decode_traffic_bytes(m: usize, n: usize, k: usize, sb: &NmSparseMatrix) -> f64 {
    let values = 4.0 * sb.w() as f64 * n as f64;
    let offsets = sb.w() as f64 * sb.q() as f64;
    let activation = 4.0 * m as f64 * k as f64;
    let result = 4.0 * m as f64 * n as f64;
    values + offsets + activation + result
}

/// One steady-state iteration is granted to kernels whose first run took
/// longer than this; past [`WARMUP_BUDGET_SECONDS`] the cold number is
/// kept rather than doubling a multi-second run.
const BIG_KERNEL_SECONDS: f64 = 0.15;

/// Cap on the extra time a big kernel's warmup re-run may cost.
const WARMUP_BUDGET_SECONDS: f64 = 2.5;

/// Measured seconds (best of an adaptive rep count) for one kernel run.
///
/// Small kernels repeat until ~0.4 s of total time and score the minimum.
/// Big kernels (first run > 0.15 s) used to run exactly once, which made
/// large-shape ladder numbers cold-run artifacts — the first iteration
/// pays page faults and cache warming the production steady state never
/// sees. They now get one budget-capped warmup: the cold run is treated
/// as warmup and one steady-state iteration is timed, unless the first
/// run already exceeded the warmup budget (then its number is kept —
/// doubling a multi-second kernel buys little).
fn time_best<F: FnMut() -> f64>(mut run_once: F) -> f64 {
    let mut best = run_once();
    if best >= BIG_KERNEL_SECONDS {
        if best < WARMUP_BUDGET_SECONDS {
            best = best.min(run_once());
        }
        return best;
    }
    let mut spent = best;
    while spent < 0.4 && best < BIG_KERNEL_SECONDS {
        let t = run_once();
        best = best.min(t);
        spent += t;
    }
    best
}

struct KernelResult {
    seconds: f64,
    gflops: f64,
    /// The micro-kernel ISA the run dispatched to; `None` for the scalar
    /// reference (it has no micro-kernel).
    isa: Option<Isa>,
}

/// The measured-autotune lane of the plan A/B: what `Session::load`
/// picked when it was allowed to benchmark instead of trusting the cost
/// model, and how the pick ran.
struct AbLane {
    /// Online wall seconds of the measured-plan forward pass.
    seconds: f64,
    gflops: f64,
    /// The tile geometry the measurement picked.
    tiling: CpuTiling,
    /// The storage format the measurement picked (decode keys compare
    /// row-major against the sliced grid; prefill stays row-major).
    storage: StorageFormat,
    /// The short-run harness's own throughput estimate for the winner —
    /// the evidence the plan cache persists.
    harness_gflops: f64,
    samples: usize,
}

struct ShapeResult {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    cfg: NmConfig,
    /// [`decode_traffic_bytes`] for decode shapes, `None` for prefill —
    /// the denominator behind every GB/s this harness reports.
    traffic_bytes: Option<f64>,
    /// Compressed-operand bytes per storage format (tag → bytes), decode
    /// shapes only — the per-format accounting behind the decode table.
    storage_bytes: Vec<(String, usize)>,
    /// `reference`, `cpu_v1`, `cpu_v2`, `cpu_v3` in that order; decode
    /// shapes append the `cpu_v3_sliced` format rival, and `m = 1`
    /// shapes append `gemm4_forced`.
    kernels: Vec<(&'static str, KernelResult)>,
    /// The measured-plan lane; `None` when autotuning is off. The
    /// cost-model lane of the A/B is `cpu_v3` above — exactly the plan a
    /// default `Session::load` prepares.
    ab: Option<AbLane>,
}

impl ShapeResult {
    fn get(&self, name: &str) -> &KernelResult {
        &self
            .kernels
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known kernel")
            .1
    }

    fn maybe(&self, name: &str) -> Option<&KernelResult> {
        self.kernels
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, k)| k)
    }

    fn speedup_vs_ref(&self, name: &str) -> f64 {
        self.get("reference").seconds / self.get(name).seconds
    }

    /// Whether this shape sits in the decode band (`m ≤ 8` rows) — the
    /// same classification [`ShapeClass::of_rows`] gives the planner.
    fn is_decode(&self) -> bool {
        self.m <= DECODE_MAX_ROWS
    }

    /// Effective GB/s of a lane that ran in `seconds`, against the
    /// shape's useful decode traffic; `None` on prefill shapes.
    fn gbps(&self, seconds: f64) -> Option<f64> {
        self.traffic_bytes.map(|t| t / seconds / 1e9)
    }

    /// The fastest prepared-path lane (ladder versions, the sliced
    /// format rival, plus the measured A/B lane when it ran) — what a
    /// decode server would actually hit.
    fn best_prepared_seconds(&self) -> f64 {
        let ladder = ["cpu_v1", "cpu_v2", "cpu_v3", "cpu_v3_sliced"]
            .iter()
            .filter_map(|name| self.maybe(name).map(|kr| kr.seconds))
            .fold(f64::INFINITY, f64::min);
        self.ab.as_ref().map_or(ladder, |ab| ladder.min(ab.seconds))
    }
}

fn bench_shape(session: &mut Session, shape: &Shape, seed: u64) -> Result<ShapeResult, String> {
    let Shape { label, m, n, k, .. } = *shape;
    let c = shape.cfg;

    let a = MatrixF32::random(m, k, seed);
    let b = MatrixF32::random(k, n, seed ^ 0x5eed);
    // Shared via Arc: the three per-version loads below reference one
    // compressed copy instead of deep-cloning it.
    let sb = std::sync::Arc::new(
        NmSparseMatrix::prune(&b, c, PrunePolicy::Magnitude)
            .map_err(|e| format!("{label}: prune failed: {e}"))?,
    );
    let useful = 2.0 * m as f64 * n as f64 * sb.w() as f64;
    let traffic_bytes = (m <= DECODE_MAX_ROWS).then(|| decode_traffic_bytes(m, n, k, &sb));

    // The scalar reference is both the baseline and the numeric oracle.
    let mut expect = None;
    let ref_s = time_best(|| {
        let t0 = Instant::now();
        let c_ref = spmm_reference(&a, &sb);
        let dt = t0.elapsed().as_secs_f64();
        expect = Some(c_ref);
        dt
    });
    let expect = expect.expect("reference ran");

    let mut kernels = vec![(
        "reference",
        KernelResult {
            seconds: ref_s,
            gflops: useful / ref_s / 1e9,
            isa: None,
        },
    )];

    // Session::load_on does all the offline work once per (shape,
    // version): planning (cached), blocking derivation, B' staging. The
    // timing reps below amortize it exactly as the CpuBackend accounts
    // it — ExecRun::wall_seconds covers the online kernel only. The session's pinned micro-kernel drives every
    // preparation, so the document's top-level `isa` and the per-kernel
    // entries agree by construction.
    let mut expect_v3 = None;
    for (name, version) in [
        ("cpu_v1", NmVersion::V1),
        ("cpu_v2", NmVersion::V2),
        ("cpu_v3", NmVersion::V3),
    ] {
        let layer = session
            .load_on(sb.clone(), m, BackendKind::Cpu(version))
            .map_err(|e| format!("{label}: {name} preparation failed: {e}"))?;
        let mut out = None;
        let mut failure = None;
        let secs = time_best(|| match layer.forward(&a) {
            Ok(run) => {
                let dt = run.wall_seconds;
                out = Some(run.c);
                dt
            }
            Err(e) => {
                failure = Some(format!("{label}: {name} failed: {e}"));
                f64::INFINITY // ends the rep loop immediately
            }
        });
        if let Some(failure) = failure {
            return Err(failure);
        }
        let got = out.expect("kernel ran");
        if !got.allclose(&expect, 1e-3, 1e-4) {
            return Err(format!(
                "{label}: {name} disagrees with the reference (max diff {})",
                got.max_abs_diff(&expect)
            ));
        }
        let isa = layer.isa().expect("CPU backend reports an ISA");
        if version == NmVersion::V3 {
            expect_v3 = Some(got.clone());
        }
        kernels.push((
            name,
            KernelResult {
                seconds: secs,
                gflops: useful / secs / 1e9,
                isa: Some(isa),
            },
        ));
    }

    // The storage-format rival, decode shapes only: the same V3
    // preparation pinned to the SELL-C-σ sliced layout, head to head
    // with the row-major `cpu_v3` lane above. An explicit backend keeps
    // this lane measurement-free (like the ladder lanes), so it times
    // the *derived* sliced geometry — the measured A/B lane below is
    // where evidence picks a format.
    if m <= DECODE_MAX_ROWS {
        let expect_v3 = expect_v3.as_ref().expect("cpu_v3 ran");
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let layer = session
            .load_with(
                sb.clone(),
                LoadSpec::rows(m)
                    .backend(BackendKind::Cpu(NmVersion::V3))
                    .storage(pin),
            )
            .map_err(|e| format!("{label}: cpu_v3_sliced preparation failed: {e}"))?;
        let mut out = None;
        let mut failure = None;
        let secs = time_best(|| match layer.forward(&a) {
            Ok(run) => {
                let dt = run.wall_seconds;
                out = Some(run.c);
                dt
            }
            Err(e) => {
                failure = Some(format!("{label}: cpu_v3_sliced failed: {e}"));
                f64::INFINITY
            }
        });
        if let Some(failure) = failure {
            return Err(failure);
        }
        let got = out.expect("kernel ran");
        // The sliced staging is bit-identical to the row-major one, so
        // the cheap oracle is exact equality with the `cpu_v3` product —
        // a tolerance here would hide a broken permutation.
        if got.as_slice() != expect_v3.as_slice() {
            return Err(format!(
                "{label}: cpu_v3_sliced is not bit-identical to cpu_v3 (max diff {})",
                got.max_abs_diff(expect_v3)
            ));
        }
        let isa = layer.isa().expect("CPU backend reports an ISA");
        kernels.push((
            "cpu_v3_sliced",
            KernelResult {
                seconds: secs,
                gflops: useful / secs / 1e9,
                isa: Some(isa),
            },
        ));
    }

    // Decode rival, m = 1 only: the GEMM tile forced onto the SpMV shape
    // — a 4-row zero-padded operand through the prepared ladder, which is
    // what a fixed 4×16 register tile does to a one-row input. It is
    // scored at the *useful* (1-row) FLOPs and traffic, so the padding
    // waste shows up as lost throughput rather than being normalized
    // away.
    if m == 1 {
        let layer = session
            .load_on(sb.clone(), 4, BackendKind::Cpu(NmVersion::V1))
            .map_err(|e| format!("{label}: gemm4_forced preparation failed: {e}"))?;
        let mut a4 = vec![0f32; 4 * k];
        a4[..k].copy_from_slice(a.row(0));
        let a4 = MatrixF32::from_vec(4, k, a4);
        let mut out = None;
        let mut failure = None;
        let gemm_s = time_best(|| match layer.forward(&a4) {
            Ok(run) => {
                let dt = run.wall_seconds;
                out = Some(run.c);
                dt
            }
            Err(e) => {
                failure = Some(format!("{label}: gemm4_forced failed: {e}"));
                f64::INFINITY
            }
        });
        if let Some(failure) = failure {
            return Err(failure);
        }
        let c4 = out.expect("gemm4 ran");
        let got = MatrixF32::from_vec(1, n, c4.row(0).to_vec());
        if !got.allclose(&expect, 1e-3, 1e-4) {
            return Err(format!(
                "{label}: gemm4_forced row 0 disagrees with the reference (max diff {})",
                got.max_abs_diff(&expect)
            ));
        }
        let isa = layer.isa().expect("CPU backend reports an ISA");
        kernels.push((
            "gemm4_forced",
            KernelResult {
                seconds: gemm_s,
                gflops: useful / gemm_s / 1e9,
                isa: Some(isa),
            },
        ));
    }

    // The A/B lane: `Session::load` with measured autotuning routes
    // through the short-run harness (cache-consulted, so repeat shapes
    // re-measure nothing) and prepares V3 on the evidence-picked tiling
    // and storage format. Timed identically to the ladder lanes above.
    let ab = if session.autotune() != AutotuneMode::Off {
        let layer = session
            .load(sb.clone(), m)
            .map_err(|e| format!("{label}: measured-autotune load failed: {e}"))?;
        let mut out = None;
        let mut failure = None;
        let secs = time_best(|| match layer.forward(&a) {
            Ok(run) => {
                let dt = run.wall_seconds;
                out = Some(run.c);
                dt
            }
            Err(e) => {
                failure = Some(format!("{label}: measured plan failed: {e}"));
                f64::INFINITY
            }
        });
        if let Some(failure) = failure {
            return Err(failure);
        }
        let got = out.expect("kernel ran");
        if !got.allclose(&expect, 1e-3, 1e-4) {
            return Err(format!(
                "{label}: measured plan disagrees with the reference (max diff {})",
                got.max_abs_diff(&expect)
            ));
        }
        let measured = layer
            .plan()
            .measured
            .ok_or_else(|| format!("{label}: measured load returned a plan without evidence"))?;
        Some(AbLane {
            seconds: secs,
            gflops: useful / secs / 1e9,
            tiling: measured.cpu_tiling,
            storage: measured.storage,
            harness_gflops: measured.gflops,
            samples: measured.samples,
        })
    } else {
        None
    };

    // Per-format compressed-operand footprint, decode shapes only (the
    // formats the rival lane above actually raced). Index bytes use the
    // row-major u8 layout on both sides so the delta isolates the sliced
    // format's permutation + padding overhead.
    let storage_bytes = if m <= DECODE_MAX_ROWS {
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        vec![
            (
                StorageFormat::RowMajor.tag(),
                sb.storage_bytes(IndexLayout::RowMajorU8),
            ),
            (pin.tag(), sb.storage_bytes_as(pin, IndexLayout::RowMajorU8)),
        ]
    } else {
        Vec::new()
    };

    Ok(ShapeResult {
        label,
        m,
        n,
        k,
        cfg: c,
        traffic_bytes,
        storage_bytes,
        kernels,
        ab,
    })
}

fn results_to_json(
    results: &[ShapeResult],
    mode: &str,
    device: &str,
    isa: Isa,
    autotune: AutotuneMode,
) -> JsonValue {
    let shapes = results
        .iter()
        .map(|r| {
            let kernels = r
                .kernels
                .iter()
                .map(|(name, kr)| {
                    let mut fields = vec![
                        ("seconds", JsonValue::Number(kr.seconds)),
                        ("gflops", JsonValue::Number(kr.gflops)),
                    ];
                    if let Some(gbps) = r.gbps(kr.seconds) {
                        fields.push(("gbps", JsonValue::Number(gbps)));
                    }
                    if let Some(isa) = kr.isa {
                        fields.push(("isa", JsonValue::from_str_value(isa.name())));
                    }
                    if *name != "reference" {
                        fields.push(("speedup_vs_ref", JsonValue::Number(r.speedup_vs_ref(name))));
                    }
                    (*name, JsonValue::object(fields))
                })
                .collect::<Vec<_>>();
            let mut fields = vec![
                ("label", JsonValue::from_str_value(r.label)),
                ("m", JsonValue::from_usize(r.m)),
                ("n", JsonValue::from_usize(r.n)),
                ("k", JsonValue::from_usize(r.k)),
                ("n_keep", JsonValue::from_usize(r.cfg.n)),
                ("m_win", JsonValue::from_usize(r.cfg.m)),
                ("l", JsonValue::from_usize(r.cfg.l)),
                ("sparsity", JsonValue::Number(r.cfg.sparsity())),
                (
                    "shape_class",
                    JsonValue::from_str_value(&ShapeClass::of_rows(r.m).tag()),
                ),
                ("kernels", JsonValue::object(kernels)),
                (
                    "stepwise",
                    JsonValue::object(vec![
                        ("v1_over_ref", JsonValue::Number(r.speedup_vs_ref("cpu_v1"))),
                        (
                            "v2_over_v1",
                            JsonValue::Number(r.get("cpu_v1").seconds / r.get("cpu_v2").seconds),
                        ),
                        (
                            "v3_over_v2",
                            JsonValue::Number(r.get("cpu_v2").seconds / r.get("cpu_v3").seconds),
                        ),
                        ("v3_over_ref", JsonValue::Number(r.speedup_vs_ref("cpu_v3"))),
                    ]),
                ),
            ];
            if let Some(t) = r.traffic_bytes {
                fields.push(("traffic_bytes", JsonValue::Number(t)));
            }
            if !r.storage_bytes.is_empty() {
                fields.push((
                    "storage_bytes",
                    JsonValue::object(
                        r.storage_bytes
                            .iter()
                            .map(|(tag, bytes)| (tag.as_str(), JsonValue::from_usize(*bytes)))
                            .collect(),
                    ),
                ));
            }
            if let Some(ab) = &r.ab {
                // Both lanes of the plan A/B, normalized against the
                // same-run reference so the comparison survives a change
                // of host.
                fields.push((
                    "plan_ab",
                    JsonValue::object(vec![
                        (
                            "cost_model",
                            JsonValue::object(vec![
                                ("version", JsonValue::from_str_value("v3")),
                                ("provenance", JsonValue::from_str_value("cost_model")),
                                ("seconds", JsonValue::Number(r.get("cpu_v3").seconds)),
                                (
                                    "speedup_vs_ref",
                                    JsonValue::Number(r.speedup_vs_ref("cpu_v3")),
                                ),
                            ]),
                        ),
                        (
                            "measured",
                            JsonValue::object(vec![
                                ("version", JsonValue::from_str_value("v3")),
                                ("provenance", JsonValue::from_str_value("measured")),
                                ("seconds", JsonValue::Number(ab.seconds)),
                                ("gflops", JsonValue::Number(ab.gflops)),
                                (
                                    "gbps",
                                    r.gbps(ab.seconds)
                                        .map_or(JsonValue::Null, JsonValue::Number),
                                ),
                                (
                                    "speedup_vs_ref",
                                    JsonValue::Number(r.get("reference").seconds / ab.seconds),
                                ),
                                (
                                    "tiling",
                                    JsonValue::object(vec![
                                        ("mb", JsonValue::from_usize(ab.tiling.mb)),
                                        ("nb", JsonValue::from_usize(ab.tiling.nb)),
                                        ("kb", JsonValue::from_usize(ab.tiling.kb)),
                                        ("mt", JsonValue::from_usize(ab.tiling.mt)),
                                    ]),
                                ),
                                ("storage", JsonValue::from_str_value(&ab.storage.tag())),
                                ("harness_gflops", JsonValue::Number(ab.harness_gflops)),
                                ("samples", JsonValue::from_usize(ab.samples)),
                            ]),
                        ),
                        (
                            "measured_over_cost_model",
                            JsonValue::Number(r.get("cpu_v3").seconds / ab.seconds),
                        ),
                    ]),
                ));
            }
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object(vec![
        (
            "format",
            JsonValue::from_str_value("nm-spmm measured bench"),
        ),
        ("version", JsonValue::from_usize(1)),
        ("mode", JsonValue::from_str_value(mode)),
        ("autotune_mode", JsonValue::from_str_value(autotune.name())),
        ("plan_device", JsonValue::from_str_value(device)),
        ("isa", JsonValue::from_str_value(isa.name())),
        (
            "threads",
            JsonValue::from_usize(std::thread::available_parallelism().map_or(1, |p| p.get())),
        ),
        ("shapes", JsonValue::Array(shapes)),
    ])
}

/// Compare against a baseline document; returns human-readable regression
/// lines (empty = gate passes).
///
/// The gated metric is each CPU kernel's **speedup over the same-run
/// reference** (`speedup_vs_ref`), not absolute GFLOP/s: the ratio divides
/// out the host's per-core throughput, so a baseline recorded on one
/// machine remains meaningful on a different CI runner — **provided both
/// ran the same micro-kernel ISA**. SIMD dispatch inflates the CPU
/// kernels but not the scalar reference, so an avx512-recorded ratio is
/// meaningless on an avx2-only runner; entries whose baseline `isa`
/// disagrees with the measured one are skipped with a note instead of
/// producing spurious regressions (CI additionally pins the gated run's
/// ISA so this stays a safety net, not the common path). Shapes or
/// kernels the baseline does not know are likewise skipped, but a check
/// that ends up comparing **nothing** is itself a failure — otherwise a
/// renamed shape set would silently disarm the gate — *unless* everything
/// was skipped for ISA mismatch under **native** dispatch, which is a
/// hardware difference, not a stale baseline. When the run's ISA was
/// explicitly pinned (`isa_pinned`, i.e. `NM_SPMM_ISA` /
/// `NM_SPMM_FORCE_SCALAR` was set), an all-skipped comparison means the
/// pin and the baseline disagree — a configuration error that must fail,
/// or a forgotten pin during baseline regeneration would disarm CI's
/// gate permanently and silently.
fn check_against(
    results: &[ShapeResult],
    baseline: &JsonValue,
    threshold: f64,
    isa_pinned: bool,
) -> Vec<String> {
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let mut isa_skipped = 0usize;
    let Some(base_shapes) = baseline.get("shapes").and_then(|s| s.as_array()) else {
        return vec!["baseline has no `shapes` array".into()];
    };
    for r in results {
        let Some(base) = base_shapes
            .iter()
            .find(|s| s.str_field("label").ok() == Some(r.label))
        else {
            println!("  (baseline has no shape `{}` — skipped)", r.label);
            continue;
        };
        let Ok(base_kernels) = base.field("kernels") else {
            continue;
        };
        for (name, kr) in &r.kernels {
            if *name == "reference" {
                continue; // the reference *is* the normalizer
            }
            let Some(base_kernel) = base_kernels.get(name) else {
                continue;
            };
            let Some(base_speedup) = base_kernel.get("speedup_vs_ref").and_then(|v| v.as_f64())
            else {
                continue;
            };
            // A baseline recorded under a different micro-kernel ISA is
            // not comparable; a baseline without an isa field (pre-dispatch
            // format) is compared as before.
            let base_isa = base_kernel.get("isa").and_then(|v| v.as_str());
            let measured_isa = kr.isa.map(|i| i.name());
            if let (Some(b), Some(m)) = (base_isa, measured_isa) {
                if b != m {
                    println!(
                        "  (baseline {} / {name} was recorded with the {b} \
                         micro-kernel; this run used {m} — skipped)",
                        r.label
                    );
                    isa_skipped += 1;
                    continue;
                }
            }
            compared += 1;
            let measured = r.speedup_vs_ref(name);
            let floor = base_speedup * (1.0 - threshold);
            if measured < floor {
                regressions.push(format!(
                    "{} / {name}: {measured:.2}x vs reference < {floor:.2}x \
                     (baseline {base_speedup:.2}x − {:.0}%)",
                    r.label,
                    threshold * 100.0
                ));
            }
        }
    }
    if compared == 0 {
        if isa_skipped > 0 && isa_pinned {
            regressions.push(format!(
                "every (shape, kernel) pair was skipped for ISA mismatch while the \
                 run's ISA was explicitly pinned — the pin and the baseline disagree; \
                 regenerate BENCH_baseline.json under the same NM_SPMM_ISA pin \
                 ({isa_skipped} pairs skipped)"
            ));
        } else if isa_skipped > 0 {
            println!(
                "  WARNING: every (shape, kernel) pair was skipped for ISA mismatch — \
                 the gate is disarmed on this hardware; regenerate BENCH_baseline.json \
                 under this runner's ISA (or pin NM_SPMM_ISA) to re-arm it"
            );
        } else {
            regressions.push(
                "no (shape, kernel) pair overlaps the baseline — the gate compared nothing; \
                 regenerate BENCH_baseline.json for the current shape set"
                    .into(),
            );
        }
    }
    regressions
}

/// The `--assert-ab` gate: on the 512³ prefill shapes a Quick grid holds
/// only the derived tiling — the one the cost-model default (`cpu_v3`)
/// runs — so the gate checks that the measured path costs nothing there:
/// the measured plan must run at least as fast as `cpu_v3`, with a 5%
/// allowance for timing noise.
/// Returns failure lines; empty = pass. A comparison that covers nothing
/// is itself a failure, so a renamed shape set cannot silently disarm it.
fn check_ab(results: &[ShapeResult]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for r in results {
        if !(r.m == 512 && r.n == 512 && r.k == 512) {
            continue;
        }
        let Some(ab) = &r.ab else { continue };
        compared += 1;
        let ratio = r.get("cpu_v3").seconds / ab.seconds;
        if ratio < 0.95 {
            failures.push(format!(
                "{}: the measured plan ({:.2} GFLOP/s) ran at {ratio:.2}x the \
                 cost-model V3 plan — the measured path must cost nothing: it must \
                 not lose to the static default whose tiling it re-times",
                r.label, ab.gflops,
            ));
        }
    }
    if compared == 0 {
        failures.push(
            "--assert-ab compared nothing: no 512-cubed shape carried an A/B lane \
             (run with --autotune quick|full and a shape set containing A-512-*)"
                .into(),
        );
    }
    failures
}

/// The `--decode` gate, in the spirit of [`check_ab`] but for the skinny
/// band. Three claims are enforced on every decode shape in the run:
///
/// 1. **Evidence holds** — where the A/B lane ran, the measured plan must
///    not lose to the cost-model V3 default (same 5% noise allowance as
///    `check_ab`; decode is exactly where GEMM-trained cost models are
///    known to mislead, so evidence losing here means the skinny
///    candidates in `measure::tiling_candidates` stopped winning).
/// 2. **Format evidence holds** — where the sliced rival lane ran, the
///    measured plan must likewise stay within 5% of it; together with
///    claim 1 the evidence-picked storage format never loses to either
///    same-run format lane.
/// 3. **The prepared SpMV path earns its keep** — on `m = 1` shapes the
///    best prepared lane must beat both rivals outright: the scalar
///    `reference` (no staging, no SIMD) and `gemm4_forced` (the 4-row GEMM
///    tile padded onto the one-row input). Losing to either means the
///    decode path is pure complexity.
///
/// Returns failure lines; empty = pass. A run that compares nothing is
/// itself a failure so a renamed shape set cannot silently disarm it.
fn check_decode(results: &[ShapeResult]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for r in results {
        if !r.is_decode() {
            continue;
        }
        if let Some(ab) = &r.ab {
            compared += 1;
            let ratio = r.get("cpu_v3").seconds / ab.seconds;
            if ratio < 0.95 {
                failures.push(format!(
                    "{}: the measured decode plan (mb={}) ran at {ratio:.2}x the \
                     cost-model V3 plan — skinny candidates must not lose to the \
                     GEMM default on a decode shape",
                    r.label, ab.tiling.mb,
                ));
            }
            // 3. **Format evidence holds** — the measured winner must also
            //    stay within the same 5% of the sliced rival lane. Combined
            //    with gate 1 (row-major `cpu_v3`), the evidence-picked
            //    format never loses to *either* same-run format lane.
            if let Some(sliced) = r.maybe("cpu_v3_sliced") {
                compared += 1;
                let ratio = sliced.seconds / ab.seconds;
                if ratio < 0.95 {
                    failures.push(format!(
                        "{}: the measured decode plan (format {}) ran at {ratio:.2}x the \
                         sliced rival lane — the format dimension of the autotune grid \
                         stopped tracking the better layout",
                        r.label,
                        ab.storage.tag(),
                    ));
                }
            }
        }
        if r.m != 1 {
            continue;
        }
        let best = r.best_prepared_seconds();
        for rival in ["reference", "gemm4_forced"] {
            let Some(kr) = r.maybe(rival) else { continue };
            compared += 1;
            if best >= kr.seconds {
                failures.push(format!(
                    "{}: the prepared SpMV path ({best:.6}s) does not beat {rival} \
                     ({:.6}s) — the decode path must outrun both the scalar \
                     reference and the forced GEMM tile",
                    r.label, kr.seconds,
                ));
            }
        }
    }
    if compared == 0 {
        failures.push(
            "--decode gate compared nothing: no decode shape carried an A/B lane or \
             an m=1 rival (run a shape set containing decode-* shapes)"
                .into(),
        );
    }
    failures
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_measured [--quick] [--decode] [--out PATH] [--check-against PATH] \
         [--threshold F] [--seed N] [--autotune off|quick|full] [--assert-ab]\n\
         \n\
         --threshold F   allowed fractional regression of speedup-vs-reference,\n\
         \u{20}                strictly between 0 and 1 (default 0.25 = 25%)\n\
         --autotune M    also run the measured-plan A/B lane (Session::load under\n\
         \u{20}                short-run autotuning) next to the cost-model default\n\
         --assert-ab     fail (exit 1) when the measured plan loses to the\n\
         \u{20}                cost-model plan on the 512-cubed shapes; needs --autotune\n\
         --decode        run the decode shape set only (m <= 8; --quick picks the\n\
         \u{20}                small set) and gate it: measured plans must hold and the\n\
         \u{20}                prepared SpMV path must beat the scalar reference and the\n\
         \u{20}                forced GEMM tile on m=1 (exit 1 on failure)\n\
         \n\
         environment: NM_SPMM_ISA=scalar|avx2|avx512|neon|native and\n\
         NM_SPMM_FORCE_SCALAR=1 override the micro-kernel ISA dispatch;\n\
         NM_SPMM_AUTOTUNE=off|quick|full is the env form of --autotune"
    );
    std::process::exit(2);
}

/// A regression threshold is a *fraction* of the baseline speedup: 0 (or
/// less) would fail on measurement noise alone, and 1 (or more) can never
/// fire — `floor = base · (1 − t)` hits zero — so both ends are rejected
/// rather than silently arming a nonsense gate.
fn threshold_is_valid(t: f64) -> bool {
    t.is_finite() && t > 0.0 && t < 1.0
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_pr.json");
    let mut check: Option<String> = None;
    let mut threshold = 0.25f64;
    let mut seed = 42u64;
    let mut autotune: Option<AutotuneMode> = None;
    let mut assert_ab = false;
    let mut decode_only = false;

    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--assert-ab" => assert_ab = true,
            "--decode" => decode_only = true,
            "--autotune" => {
                i += 1;
                let value = argv.get(i).cloned().unwrap_or_else(|| usage());
                // Validated exactly like the env form: garbage is a
                // structured usage error, never a silent fallback to Off.
                autotune = Some(match AutotuneMode::from_name(&value) {
                    Ok(mode) => mode,
                    Err(e) => {
                        eprintln!("--autotune {value}: {e}");
                        std::process::exit(2);
                    }
                });
            }
            "--out" => {
                i += 1;
                out = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--check-against" => {
                i += 1;
                check = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threshold" => {
                i += 1;
                threshold = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
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
    if !threshold_is_valid(threshold) {
        eprintln!("--threshold {threshold} is outside (0, 1)");
        usage();
    }
    // The flag wins over the environment; either way an unrecognized
    // mode is a hard usage error (exit 2), mirroring NM_SPMM_ISA.
    let autotune = match autotune {
        Some(mode) => mode,
        None => match AutotuneMode::from_env() {
            Ok(mode) => mode.unwrap_or_default(),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    if assert_ab && autotune == AutotuneMode::Off {
        eprintln!("--assert-ab needs the A/B lane; pass --autotune quick|full");
        usage();
    }

    // Decode shapes ride along with every sweep (so BENCH_pr.json always
    // carries the skinny band) and stand alone under --decode.
    let shapes = if decode_only {
        decode_shapes(quick)
    } else {
        let mut s = if quick { quick_shapes() } else { full_shapes() };
        s.extend(decode_shapes(quick));
        s
    };
    let mode = match (decode_only, quick) {
        (true, true) => "decode-quick",
        (true, false) => "decode-full",
        (false, true) => "quick",
        (false, false) => "full",
    };
    // The micro-kernel the runs below will dispatch to (honoring the
    // NM_SPMM_* overrides); resolving it here surfaces a bad override as
    // a usage error before any benchmarking starts.
    let kernel = match MicroKernel::select() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("micro-kernel selection failed: {e}");
            std::process::exit(2);
        }
    };
    // Plans come from the A100 model: the auto-tuned blocking (not the
    // timing estimate) is what drives the CPU tile sizes. The session
    // pins the resolved micro-kernel across every layer it loads.
    let mut session = match SessionBuilder::new(a100_80g())
        .micro_kernel(kernel)
        .autotune(autotune)
        .build()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot build session: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "== measured CPU ladder ({mode} mode, {} shapes, {} micro-kernel, autotune {autotune}) ==\n",
        shapes.len(),
        kernel.isa()
    );
    let mut results = Vec::new();
    for shape in &shapes {
        print!(
            "{:>14}  {}x{}x{} {} ... ",
            shape.label,
            shape.m,
            shape.n,
            shape.k,
            shape.cfg.label()
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match bench_shape(&mut session, shape, seed) {
            Ok(r) => {
                println!(
                    "ref {:.3}s  V3 {} ({:.2} GFLOP/s)",
                    r.get("reference").seconds,
                    spd(r.speedup_vs_ref("cpu_v3")),
                    r.get("cpu_v3").gflops
                );
                results.push(r);
            }
            Err(e) => {
                eprintln!("FAILED\nnumeric/planning failure: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut t = TextTable::new(&[
        "shape", "N:M", "ref GF/s", "V1 GF/s", "V2 GF/s", "V3 GF/s", "V1/ref", "V2/V1", "V3/V2",
        "V3/ref",
    ]);
    for r in &results {
        t.row(&[
            r.label.to_string(),
            r.cfg.label(),
            format!("{:.2}", r.get("reference").gflops),
            format!("{:.2}", r.get("cpu_v1").gflops),
            format!("{:.2}", r.get("cpu_v2").gflops),
            format!("{:.2}", r.get("cpu_v3").gflops),
            spd(r.speedup_vs_ref("cpu_v1")),
            spd(r.get("cpu_v1").seconds / r.get("cpu_v2").seconds),
            spd(r.get("cpu_v2").seconds / r.get("cpu_v3").seconds),
            spd(r.speedup_vs_ref("cpu_v3")),
        ]);
    }
    println!();
    t.print();

    if results.iter().any(|r| r.ab.is_some()) {
        println!("\n== plan A/B: cost-model default (V3) vs measured autotune ==\n");
        let mut t = TextTable::new(&[
            "shape",
            "V3 GF/s",
            "measured GF/s",
            "tiling mb/nb/kb/mt",
            "format",
            "meas/V3",
        ]);
        for r in &results {
            let Some(ab) = &r.ab else { continue };
            t.row(&[
                r.label.to_string(),
                format!("{:.2}", r.get("cpu_v3").gflops),
                format!("{:.2}", ab.gflops),
                format!(
                    "{}/{}/{}/{}",
                    ab.tiling.mb, ab.tiling.nb, ab.tiling.kb, ab.tiling.mt
                ),
                ab.storage.tag(),
                spd(r.get("cpu_v3").seconds / ab.seconds),
            ]);
        }
        t.print();
    }

    if results.iter().any(|r| r.is_decode()) {
        println!("\n== decode lanes (effective GB/s at useful traffic) ==\n");
        let mut t = TextTable::new(&[
            "shape",
            "m",
            "V1 GB/s",
            "V2 GB/s",
            "V3 GB/s",
            "sliced GB/s",
            "ref GB/s",
            "gemm4 GB/s",
            "best/ref",
            "best/gemm4",
        ]);
        for r in results.iter().filter(|r| r.is_decode()) {
            let gb = |name: &str| {
                r.maybe(name)
                    .and_then(|kr| r.gbps(kr.seconds))
                    .map_or("-".to_string(), |v| format!("{v:.2}"))
            };
            let best = r.best_prepared_seconds();
            let vs_best = |name: &str| {
                r.maybe(name)
                    .map_or("-".to_string(), |kr| spd(kr.seconds / best))
            };
            t.row(&[
                r.label.to_string(),
                r.m.to_string(),
                gb("cpu_v1"),
                gb("cpu_v2"),
                gb("cpu_v3"),
                gb("cpu_v3_sliced"),
                gb("reference"),
                gb("gemm4_forced"),
                vs_best("reference"),
                vs_best("gemm4_forced"),
            ]);
        }
        t.print();
    }

    let doc = results_to_json(
        &results,
        mode,
        &session.device().name,
        kernel.isa(),
        autotune,
    );
    let json = doc.dump().expect("results serialize");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {out}");

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let baseline = match JsonValue::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("malformed baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "checking against {path} (threshold {:.0}%):",
            threshold * 100.0
        );
        // Whether the run's ISA came from an explicit override rather than
        // native dispatch — it decides how an all-ISA-mismatch comparison
        // is judged (configuration error vs hardware difference). Spelled
        // out defaults (NM_SPMM_ISA=native, NM_SPMM_FORCE_SCALAR=0) count
        // as native dispatch, matching what select() actually did.
        let isa_pinned = MicroKernel::env_pins_isa();
        let regressions = check_against(&results, &baseline, threshold, isa_pinned);
        if regressions.is_empty() {
            println!("  no regressions — gate passes");
        } else {
            for r in &regressions {
                eprintln!("  REGRESSION: {r}");
            }
            std::process::exit(1);
        }
    }

    if assert_ab {
        let failures = check_ab(&results);
        if failures.is_empty() {
            println!("plan A/B gate: measured plans hold on the 512-cubed shapes");
        } else {
            for f in &failures {
                eprintln!("  A/B FAILURE: {f}");
            }
            std::process::exit(1);
        }
    }

    if decode_only {
        let failures = check_decode(&results);
        if failures.is_empty() {
            println!(
                "decode gate: measured plans hold and the prepared SpMV path beats \
                 both rivals on m=1"
            );
        } else {
            for f in &failures {
                eprintln!("  DECODE FAILURE: {f}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shape whose `cpu_v3` ran `v3_seconds` against a 1-second
    /// reference (powers of two keep the speedup arithmetic exact).
    fn result_with_v3_seconds(v3_seconds: f64) -> ShapeResult {
        ShapeResult {
            label: "A-512-75",
            m: 512,
            n: 512,
            k: 512,
            cfg: NmConfig::new(2, 8, 32).unwrap(),
            traffic_bytes: None,
            storage_bytes: Vec::new(),
            kernels: vec![
                (
                    "reference",
                    KernelResult {
                        seconds: 1.0,
                        gflops: 1.0,
                        isa: None,
                    },
                ),
                (
                    "cpu_v3",
                    KernelResult {
                        seconds: v3_seconds,
                        gflops: 1.0 / v3_seconds,
                        isa: Some(Isa::Scalar),
                    },
                ),
            ],
            ab: None,
        }
    }

    /// Attach a measured A/B lane that ran in `seconds`.
    fn with_ab(mut r: ShapeResult, seconds: f64) -> ShapeResult {
        r.ab = Some(AbLane {
            seconds,
            gflops: 1.0 / seconds,
            tiling: CpuTiling {
                mb: 64,
                nb: 128,
                kb: 128,
                mt: 8,
            },
            storage: StorageFormat::RowMajor,
            harness_gflops: 1.0 / seconds,
            samples: 3,
        });
        r
    }

    fn baseline(label: &str, speedup: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"shapes": [{{"label": "{label}",
                 "kernels": {{"cpu_v3": {{"speedup_vs_ref": {speedup}}}}}}}]}}"#
        ))
        .unwrap()
    }

    fn baseline_with_isa(label: &str, speedup: f64, isa: &str) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"shapes": [{{"label": "{label}",
                 "kernels": {{"cpu_v3": {{"speedup_vs_ref": {speedup},
                                          "isa": "{isa}"}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn threshold_bounds_are_exclusive() {
        assert!(threshold_is_valid(0.25));
        assert!(threshold_is_valid(1e-9));
        assert!(threshold_is_valid(0.999));
        assert!(!threshold_is_valid(0.0), "0 fails on noise alone");
        assert!(!threshold_is_valid(1.0), "1 can never fire");
        assert!(!threshold_is_valid(-0.5));
        assert!(!threshold_is_valid(1.5));
        assert!(!threshold_is_valid(f64::NAN));
        assert!(!threshold_is_valid(f64::INFINITY));
    }

    #[test]
    fn floor_boundary_is_exclusive() {
        // Baseline 4x, threshold 0.5 → floor = 2x, all exactly
        // representable. A measured speedup exactly AT the floor passes
        // (the gate fires on `measured < floor`, strictly)...
        let at_floor = result_with_v3_seconds(0.5); // speedup exactly 2.0
        assert!(
            check_against(&[at_floor], &baseline("A-512-75", 4.0), 0.5, false).is_empty(),
            "measured == floor must pass"
        );
        // ...and one representable step below it fails.
        let below = result_with_v3_seconds(0.512); // speedup 1.953125
        let regressions = check_against(&[below], &baseline("A-512-75", 4.0), 0.5, false);
        assert_eq!(regressions.len(), 1, "measured < floor must fail");
        assert!(regressions[0].contains("cpu_v3"));
    }

    #[test]
    fn tiny_threshold_arms_a_tight_gate() {
        // threshold → 0 means the floor sits just under the baseline.
        let r = result_with_v3_seconds(0.25); // 4.0x measured
        assert!(check_against(&[r], &baseline("A-512-75", 4.0), 1e-9, false).is_empty());
        let r = result_with_v3_seconds(0.251); // fractionally slower
        assert_eq!(
            check_against(&[r], &baseline("A-512-75", 4.0), 1e-9, false).len(),
            1
        );
    }

    #[test]
    fn empty_overlap_is_itself_a_failure() {
        let r = result_with_v3_seconds(0.5);
        let regressions = check_against(&[r], &baseline("renamed-shape", 4.0), 0.25, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("compared nothing"));
    }

    #[test]
    fn isa_mismatch_skips_instead_of_spuriously_regressing() {
        // The measured run (scalar, 2.0x) would regress hard against an
        // avx512-recorded 8x baseline — but that ratio is not comparable
        // across ISAs, so the pair is skipped; with nothing else to
        // compare the gate disarms with a warning rather than failing.
        let r = result_with_v3_seconds(0.5);
        let regressions = check_against(
            &[r],
            &baseline_with_isa("A-512-75", 8.0, "avx512"),
            0.25,
            false,
        );
        assert!(
            regressions.is_empty(),
            "cross-ISA ratios must not gate: {regressions:?}"
        );
    }

    #[test]
    fn all_skipped_under_an_explicit_pin_is_a_configuration_failure() {
        // Same mismatch as above, but the run's ISA was pinned via env:
        // the pin and the baseline disagree, which must fail loudly —
        // otherwise a baseline regenerated without the CI pin would
        // permanently disarm the gate.
        let r = result_with_v3_seconds(0.5);
        let regressions = check_against(
            &[r],
            &baseline_with_isa("A-512-75", 8.0, "avx512"),
            0.25,
            true,
        );
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("explicitly pinned"));
    }

    #[test]
    fn matching_isa_still_gates() {
        let r = result_with_v3_seconds(0.5); // scalar, 2.0x
        let regressions = check_against(
            &[r],
            &baseline_with_isa("A-512-75", 8.0, "scalar"),
            0.25,
            false,
        );
        assert_eq!(regressions.len(), 1, "same-ISA regressions must fire");
    }

    #[test]
    fn ab_gate_passes_when_measured_wins_or_ties() {
        // Measured faster than V3: clean pass.
        let r = with_ab(result_with_v3_seconds(0.5), 0.25);
        assert!(check_ab(&[r]).is_empty());
        // Measured exactly at the 5% noise floor (ratio 0.95): passes —
        // the gate fires on `ratio < 0.95`, strictly.
        let r = with_ab(result_with_v3_seconds(0.95), 1.0);
        assert!(check_ab(&[r]).is_empty(), "ratio == 0.95 must pass");
    }

    #[test]
    fn ab_gate_fails_when_measured_loses_to_the_cost_model() {
        // Measured twice as slow as the V3 default: the whole point of
        // evidence-based planning failed on this shape.
        let r = with_ab(result_with_v3_seconds(0.5), 1.0);
        let failures = check_ab(&[r]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("must not lose"));
    }

    #[test]
    fn ab_gate_comparing_nothing_is_a_failure() {
        // No A/B lane at all (autotune off) …
        let failures = check_ab(&[result_with_v3_seconds(0.5)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
        // … and a lane on a non-512³ shape doesn't arm the gate either.
        let mut r = with_ab(result_with_v3_seconds(0.5), 0.25);
        r.m = 1024;
        let failures = check_ab(&[r]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
    }

    #[test]
    fn legacy_baseline_without_isa_still_gates() {
        // Pre-dispatch baselines carry no isa field; they keep gating as
        // before rather than being silently skipped.
        let r = result_with_v3_seconds(0.5); // 2.0x
        let regressions = check_against(&[r], &baseline("A-512-75", 8.0), 0.25, false);
        assert_eq!(regressions.len(), 1);
    }

    /// An `m = 1` decode shape: the fastest ladder lane runs in
    /// `prepared_seconds`, the rivals as given.
    fn decode_result(
        prepared_seconds: f64,
        reference_seconds: f64,
        gemm_seconds: f64,
    ) -> ShapeResult {
        let lane = |seconds: f64, isa: Option<Isa>| KernelResult {
            seconds,
            gflops: 1.0 / seconds,
            isa,
        };
        ShapeResult {
            label: "decode-1-512-75",
            m: 1,
            n: 512,
            k: 512,
            cfg: NmConfig::new(2, 8, 32).unwrap(),
            traffic_bytes: Some(1e9),
            storage_bytes: Vec::new(),
            kernels: vec![
                ("reference", lane(reference_seconds, None)),
                ("cpu_v1", lane(prepared_seconds, Some(Isa::Scalar))),
                ("cpu_v2", lane(prepared_seconds * 2.0, Some(Isa::Scalar))),
                ("cpu_v3", lane(prepared_seconds * 2.0, Some(Isa::Scalar))),
                ("gemm4_forced", lane(gemm_seconds, Some(Isa::Scalar))),
            ],
            ab: None,
        }
    }

    #[test]
    fn decode_gate_passes_when_the_prepared_path_beats_both_rivals() {
        let r = decode_result(0.1, 0.5, 0.4);
        assert!(check_decode(&[r]).is_empty());
    }

    #[test]
    fn decode_gate_fails_when_a_rival_wins_or_ties() {
        // The scalar reference outruns every prepared lane: the decode
        // path is pure complexity on this shape, which must fail.
        let failures = check_decode(&[decode_result(0.5, 0.1, 1.0)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("reference"));
        // A tie is not a win — the gate demands strictly faster.
        let failures = check_decode(&[decode_result(0.5, 0.5, 1.0)]);
        assert_eq!(failures.len(), 1);
        // Losing only to the forced GEMM tile also fires.
        let failures = check_decode(&[decode_result(0.5, 1.0, 0.25)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("gemm4_forced"));
    }

    #[test]
    fn decode_gate_holds_measured_plans_to_the_cost_model() {
        // An m=8 decode shape (no m=1 rivals) whose measured plan ran
        // twice as slow as the V3 default: evidence lost on the band it
        // exists for.
        let mut r = with_ab(result_with_v3_seconds(0.5), 1.0);
        r.m = 8;
        let failures = check_decode(&[r]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("must not lose"));
        // At the 5% noise floor it passes (strict `< 0.95`).
        let mut r = with_ab(result_with_v3_seconds(0.95), 1.0);
        r.m = 8;
        assert!(check_decode(&[r]).is_empty());
    }

    #[test]
    fn decode_gate_holds_measured_plans_to_the_sliced_lane() {
        // An m=8 decode shape where the measured plan keeps pace with the
        // row-major V3 lane but runs twice as slow as the sliced rival:
        // the format dimension of the grid lost evidence it should hold.
        let mut r = with_ab(result_with_v3_seconds(1.0), 1.0);
        r.m = 8;
        r.kernels.push((
            "cpu_v3_sliced",
            KernelResult {
                seconds: 0.5,
                gflops: 2.0,
                isa: Some(Isa::Scalar),
            },
        ));
        let failures = check_decode(&[r]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("sliced rival lane"));
        assert!(failures[0].contains("rowmajor"));
        // Within the 5% noise floor both format gates pass.
        let mut r = with_ab(result_with_v3_seconds(1.0), 1.0);
        r.m = 8;
        r.kernels.push((
            "cpu_v3_sliced",
            KernelResult {
                seconds: 0.95,
                gflops: 1.0 / 0.95,
                isa: Some(Isa::Scalar),
            },
        ));
        assert!(check_decode(&[r]).is_empty());
    }

    #[test]
    fn decode_gate_comparing_nothing_is_a_failure() {
        // Prefill-only results (m = 512) arm nothing …
        let failures = check_decode(&[result_with_v3_seconds(0.5)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
        // … and so does an m=8 decode shape with neither an A/B lane nor
        // m=1 rivals.
        let mut r = result_with_v3_seconds(0.5);
        r.m = 8;
        let failures = check_decode(&[r]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
    }

    #[test]
    fn gbps_is_reported_against_the_shape_traffic() {
        // 1 GB of traffic in 0.5 s → 2 GB/s; prefill shapes have no
        // bandwidth axis at all.
        let r = decode_result(0.1, 0.5, 0.4);
        assert_eq!(r.gbps(0.5), Some(2.0));
        let prefill = result_with_v3_seconds(0.5);
        assert_eq!(prefill.gbps(0.5), None);
    }

    #[test]
    fn decode_traffic_counts_operand_activation_and_result_bytes() {
        // Traffic is geometry-only, so a hand computation pins it:
        // values 4·w·n, offsets w·q, activation 4·m·k, result 4·m·n.
        let b = MatrixF32::random(64, 32, 7);
        let sb = NmSparseMatrix::prune(&b, cfg(2, 8), PrunePolicy::Magnitude).unwrap();
        let (w, q) = (sb.w() as f64, sb.q() as f64);
        let want = 4.0 * w * 32.0 + w * q + 4.0 * 64.0 + 4.0 * 32.0;
        assert_eq!(decode_traffic_bytes(1, 32, 64, &sb), want);
    }

    #[test]
    fn big_kernels_get_one_budget_capped_warmup() {
        // A slow-but-affordable first run is treated as cold warmup: one
        // steady-state iteration follows and the minimum is scored.
        let mut calls = 0;
        let best = time_best(|| {
            calls += 1;
            if calls == 1 {
                0.5
            } else {
                0.2
            }
        });
        assert_eq!(calls, 2);
        assert_eq!(best, 0.2);
        // Past the warmup budget the cold number is kept — no re-run.
        let mut calls = 0;
        let best = time_best(|| {
            calls += 1;
            3.0
        });
        assert_eq!(calls, 1);
        assert_eq!(best, 3.0);
    }

    #[test]
    fn small_kernels_repeat_to_the_time_budget() {
        let mut calls = 0;
        let best = time_best(|| {
            calls += 1;
            0.1
        });
        assert_eq!(calls, 4, "0.1 s kernels repeat until ~0.4 s is spent");
        assert_eq!(best, 0.1);
    }
}
