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
//! # Full sweep (Fig. 7 / Table II shapes, ~17 minutes on a 2-vCPU host):
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
//! `--assert-ab` / `--decode` gate failure, `2` usage / numeric-mismatch /
//! I/O failure — including a `--threshold` outside the open interval
//! `(0, 1)`, an `NM_SPMM_ISA` override this host cannot execute, and an
//! unrecognized `--autotune` / `NM_SPMM_AUTOTUNE` mode.
//!
//! The run records which micro-kernel ISA the CPU ladder dispatched to
//! (top-level `isa` field plus one per CPU kernel entry in the JSON);
//! `NM_SPMM_FORCE_SCALAR=1` forces the scalar tile so CI can A/B the SIMD
//! and scalar paths on the same host.
//!
//! ## How a shape is timed
//!
//! A shape is a table of lanes — each a prepared layer (or
//! `spmm_reference`), its input and its numeric check — loaded first, then
//! raced in one [`race`] and checked on their last outputs. The JSON
//! records each lane's median round (`seconds`) and IQR (`iqr_seconds`);
//! every ratio between two lanes is the median of their per-round ratios
//! ([`ShapeResult::ratio`]), and every gate prints each pair's ratio, the
//! IQRs and the threshold, on pass as well as on fail.
//!
//! ## The plan A/B lane
//!
//! With `--autotune quick|full` (or `NM_SPMM_AUTOTUNE`), every shape also
//! runs the **evidence-based** path — `Session::load` under measured
//! autotuning, which short-run-benchmarks V3 tilings × storage formats
//! in place and prepares V3 on the measured winner — next to the
//! cost-model default (V3 at the derived tiling). Both lanes land in the
//! JSON under `plan_ab`, and `--assert-ab` turns the comparison into a
//! gate on every prefill shape: a Quick prefill grid holds only the
//! derived tiling, so the measured path must cost nothing against the
//! static default.
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
    race, AutotuneMode, BackendKind, Isa, LoadSpec, MeasuredChoice, MicroKernel, NmVersion,
    PreparedLayer, Session, SessionBuilder, ShapeClass, Spread, DECODE_MAX_ROWS,
};

/// One benchmarked problem.
struct Shape {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    cfg: NmConfig,
}

/// A shape of `m × k` activations against `k × n` weights pruned to
/// `n_keep:m_win`.
fn shape(
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    (n_keep, m_win): (usize, usize),
) -> Shape {
    let cfg = NmConfig::new(n_keep, m_win, 32).expect("valid config");
    Shape {
        label,
        m,
        n,
        k,
        cfg,
    }
}

/// The full sweep: Fig. 7's 4096³ square at the acceptance sparsity plus a
/// spread of Table II sizes and one Llama-proportioned projection.
fn full_shapes() -> Vec<Shape> {
    vec![
        shape("A-512-50", 512, 512, 512, (8, 16)),
        shape("A-512-75", 512, 512, 512, (2, 8)),
        shape("A-512-87", 512, 512, 512, (2, 16)),
        shape("C-2048-75", 512, 2048, 2048, (2, 8)),
        shape("D-2048-87", 1024, 2048, 2048, (2, 16)),
        shape("llama-proj-75", 512, 4096, 4096, (2, 8)),
        shape("F-4096-75", 4096, 4096, 4096, (2, 8)),
    ]
}

/// The CI smoke sweep: seconds, not minutes.
fn quick_shapes() -> Vec<Shape> {
    vec![
        shape("A-512-75", 512, 512, 512, (2, 8)),
        shape("quick-768-87", 256, 768, 768, (2, 16)),
        shape("quick-512-50", 256, 512, 512, (8, 16)),
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
            shape("decode-1-512-75", 1, 512, 512, (2, 8)),
            shape("decode-8-512-75", 8, 512, 512, (2, 8)),
        ];
    }
    vec![
        shape("decode-1-2048-75", 1, 2048, 2048, (2, 8)),
        shape("decode-2-2048-75", 2, 2048, 2048, (2, 8)),
        shape("decode-4-2048-75", 4, 2048, 2048, (2, 8)),
        shape("decode-8-2048-75", 8, 2048, 2048, (2, 8)),
        shape("llama-decode-75", 1, 4096, 4096, (2, 8)),
    ]
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

/// Timed rounds of every shape's [`race`].
const RACE_REPS: usize = 41;

struct KernelResult {
    /// Median round, seconds.
    seconds: f64,
    /// Every timed round, seconds, in race order — paired with the other
    /// lanes' rounds by [`ShapeResult::ratio`].
    rounds: Vec<f64>,
    gflops: f64,
    /// The micro-kernel ISA the run dispatched to; `None` for the scalar
    /// reference (it has no micro-kernel).
    isa: Option<Isa>,
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
    /// shapes append the `cpu_v3_sliced` format rival, `m = 1` shapes
    /// append `gemm4_forced`, and autotuned runs append the `measured`
    /// plan. The cost-model lane of the A/B is `cpu_v3` — exactly the
    /// plan a default `Session::load` prepares.
    kernels: Vec<(&'static str, KernelResult)>,
    /// The evidence the `measured` lane's plan was picked on (what
    /// `Session::load` chose when it was allowed to benchmark instead of
    /// trusting the cost model); `None` when autotuning is off.
    evidence: Option<MeasuredChoice>,
}

impl ShapeResult {
    fn get(&self, name: &str) -> &KernelResult {
        self.maybe(name).expect("known kernel")
    }

    fn maybe(&self, name: &str) -> Option<&KernelResult> {
        self.kernels
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, k)| k)
    }

    /// How many times faster `fast` ran than `slow`: the median (and IQR)
    /// of their per-round time ratios. Both lanes ran in the same race, so
    /// a round the host slowed counts against both sides of its ratio.
    fn ratio(&self, slow: &str, fast: &str) -> Spread {
        let rounds = self.get(slow).rounds.iter().zip(&self.get(fast).rounds);
        Spread::of(&rounds.map(|(s, f)| s / f).collect::<Vec<_>>())
    }

    fn speedup_vs_ref(&self, name: &str) -> f64 {
        self.ratio("reference", name).median
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
    fn best_prepared(&self) -> (&'static str, &KernelResult) {
        ["cpu_v1", "cpu_v2", "cpu_v3", "cpu_v3_sliced", "measured"]
            .into_iter()
            .filter_map(|name| self.maybe(name).map(|kr| (name, kr)))
            .min_by(|x, y| x.1.seconds.total_cmp(&y.1.seconds))
            .expect("the ladder lanes ran")
    }
}

/// How a lane's last output is checked once the race is over.
#[derive(Clone, Copy)]
enum Check {
    /// The scalar reference: its output is the oracle.
    Oracle,
    /// `allclose(1e-3, 1e-4)` against the oracle.
    Close,
    /// Row 0 `allclose(1e-3, 1e-4)` against the oracle: the lane ran a
    /// zero-padded input whose useful product is its first row.
    Row0Close,
    /// Bit-identical to the named lane's output.
    BitsOf(&'static str),
}

/// One raced lane of a shape.
struct Lane<'a> {
    name: &'static str,
    /// The prepared layer it runs; `None` runs `spmm_reference`.
    layer: Option<PreparedLayer>,
    input: &'a MatrixF32,
    check: Check,
}

fn bench_shape(session: &mut Session, shape: &Shape, seed: u64) -> Result<ShapeResult, String> {
    let Shape { label, m, n, k, .. } = *shape;
    let c = shape.cfg;

    let a = MatrixF32::random(m, k, seed);
    let b = MatrixF32::random(k, n, seed ^ 0x5eed);
    // Shared via Arc: every lane's load references one compressed copy
    // instead of deep-cloning it.
    let sb = std::sync::Arc::new(
        NmSparseMatrix::prune(&b, c, PrunePolicy::Magnitude)
            .map_err(|e| format!("{label}: prune failed: {e}"))?,
    );
    let useful = 2.0 * m as f64 * n as f64 * sb.w() as f64;
    let decode = m <= DECODE_MAX_ROWS;
    let autotuned = session.autotune() != AutotuneMode::Off;
    let traffic_bytes = decode.then(|| decode_traffic_bytes(m, n, k, &sb));
    let a4 = (m == 1).then(|| MatrixF32::from_vec(4, k, [a.row(0), &vec![0.0; 3 * k]].concat()));

    // Session::load_with does each lane's offline work (planning, B'
    // staging) before the race, which times the online forward alone. The
    // session's pinned micro-kernel drives every preparation, so the
    // top-level `isa` and the per-kernel entries agree by construction.
    let mut load = |name: &'static str, spec: LoadSpec, input, check| {
        let layer = session
            .load_with(sb.clone(), spec)
            .map_err(|e| format!("{label}: {name} preparation failed: {e}"))?;
        Ok::<_, String>(Lane {
            name,
            layer: Some(layer),
            input,
            check,
        })
    };
    // The scalar reference is both the baseline and the numeric oracle.
    let mut lanes = vec![Lane {
        name: "reference",
        layer: None,
        input: &a,
        check: Check::Oracle,
    }];
    for (name, version) in [
        ("cpu_v1", NmVersion::V1),
        ("cpu_v2", NmVersion::V2),
        ("cpu_v3", NmVersion::V3),
    ] {
        let spec = LoadSpec::rows(m).backend(BackendKind::Cpu(version));
        lanes.push(load(name, spec, &a, Check::Close)?);
    }
    // The storage-format rival, decode shapes only: the same V3
    // preparation pinned to the SELL-C-σ sliced layout, head to head with
    // the row-major `cpu_v3` lane. An explicit backend keeps this lane
    // measurement-free (like the ladder lanes), so it times the *derived*
    // sliced geometry — the measured lane is where evidence picks a
    // format. The sliced staging is bit-identical to the row-major one,
    // so its oracle is exact equality with `cpu_v3` — a tolerance would
    // hide a broken permutation.
    if decode {
        let spec = LoadSpec::rows(m)
            .backend(BackendKind::Cpu(NmVersion::V3))
            .storage(StorageFormat::Sliced(SlicedLayout::DEFAULT));
        lanes.push(load("cpu_v3_sliced", spec, &a, Check::BitsOf("cpu_v3"))?);
    }
    // Decode rival, m = 1 only: the GEMM tile forced onto the SpMV shape
    // — a 4-row zero-padded operand through the prepared ladder, which is
    // what a fixed 4×16 register tile does to a one-row input. It is
    // scored at the *useful* (1-row) FLOPs and traffic, so the padding
    // waste shows up as lost throughput rather than being normalized
    // away.
    if let Some(a4) = &a4 {
        let spec = LoadSpec::rows(4).backend(BackendKind::Cpu(NmVersion::V1));
        lanes.push(load("gemm4_forced", spec, a4, Check::Row0Close)?);
    }
    // The A/B lane: `Session::load` with measured autotuning routes
    // through the short-run harness (cache-consulted, so repeat shapes
    // re-measure nothing) and prepares V3 on the evidence-picked tiling
    // and storage format.
    let mut evidence = None;
    if autotuned {
        let lane = load("measured", LoadSpec::rows(m), &a, Check::Close)?;
        let measured = lane.layer.as_ref().and_then(|l| l.plan().measured);
        let why = || format!("{label}: measured load returned a plan without evidence");
        evidence = Some(measured.ok_or_else(why)?);
        lanes.push(lane);
    }

    let mut rivals: Vec<_> = lanes
        .iter()
        .map(|lane| {
            || match &lane.layer {
                None => Ok(spmm_reference(lane.input, &sb)),
                Some(layer) => (layer.forward(lane.input).map(|run| run.c))
                    .map_err(|e| format!("{} failed: {e}", lane.name)),
            }
        })
        .collect();
    let raced = race(&mut rivals, RACE_REPS).map_err(|e| format!("{label}: {e}"))?;
    let output = |name| {
        let i = lanes.iter().position(|l| l.name == name).expect("lane");
        &raced[i].1
    };
    let expect = output("reference");
    let close = |name: &str, got: &MatrixF32| {
        if got.allclose(expect, 1e-3, 1e-4) {
            return Ok(());
        }
        let diff = got.max_abs_diff(expect);
        Err(format!(
            "{label}: {name} disagrees with the reference (max diff {diff})"
        ))
    };
    let mut kernels = Vec::new();
    for (lane, (rounds, got)) in lanes.iter().zip(&raced) {
        match lane.check {
            Check::Oracle => {}
            Check::Close => close(lane.name, got)?,
            Check::Row0Close => {
                close(lane.name, &MatrixF32::from_vec(1, n, got.row(0).to_vec()))?;
            }
            Check::BitsOf(other) => {
                let want = output(other);
                if got.as_slice() != want.as_slice() {
                    return Err(format!(
                        "{label}: {} is not bit-identical to {other} (max diff {})",
                        lane.name,
                        got.max_abs_diff(want)
                    ));
                }
            }
        }
        let isa = lane
            .layer
            .as_ref()
            .map(|l| l.isa().expect("CPU backend reports an ISA"));
        let seconds = Spread::of(rounds).median;
        kernels.push((
            lane.name,
            KernelResult {
                seconds,
                rounds: rounds.clone(),
                gflops: useful / seconds / 1e9,
                isa,
            },
        ));
    }

    // Per-format compressed-operand footprint, decode shapes only (the
    // formats the rival lane above actually raced). Index bytes use the
    // row-major u8 layout on both sides so the delta isolates the sliced
    // format's permutation + padding overhead.
    let storage_bytes = if decode {
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
        evidence,
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
                        ("iqr_seconds", JsonValue::Number(Spread::of(&kr.rounds).iqr)),
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
                            JsonValue::Number(r.ratio("cpu_v1", "cpu_v2").median),
                        ),
                        (
                            "v3_over_v2",
                            JsonValue::Number(r.ratio("cpu_v2", "cpu_v3").median),
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
            if let Some(ev) = &r.evidence {
                // The pick behind the `measured` lane, in the plan cache's
                // form, and its same-run ratio over the cost-model lane.
                let ratio = r.ratio("cpu_v3", "measured").median;
                fields.push((
                    "plan_ab",
                    JsonValue::object(vec![
                        ("measured", ev.to_json()),
                        ("measured_over_cost_model", JsonValue::Number(ratio)),
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
        ("version", JsonValue::from_usize(2)),
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

/// The floor the measured plan's median ratio over a same-run rival must
/// meet in the `--assert-ab` and `--decode` gates: a 5% allowance for
/// timing noise.
const AB_FLOOR: f64 = 0.95;

/// One gate's verdict: a margin line per compared pair — printed on pass
/// and fail alike, so a log shows how close a pass was — and the
/// failures among them (empty = pass).
#[derive(Default)]
struct Verdict {
    margins: Vec<String>,
    failures: Vec<String>,
}

impl Verdict {
    /// Judge one compared pair: the median of its per-round ratios must
    /// reach `floor` (exceed it when `strict`), else `failure` is
    /// recorded. The margin line carries that median with the ratios' IQR,
    /// each side's own IQR as a share of its median, and the threshold.
    fn pair(
        &mut self,
        what: String,
        ratio: Spread,
        sides: [(&str, &KernelResult); 2],
        (floor, strict): (f64, bool),
        failure: impl FnOnce() -> String,
    ) {
        let iqr = |(name, kr): (&str, &KernelResult)| {
            format!(
                "{name} {:.1}%",
                100.0 * Spread::of(&kr.rounds).iqr / kr.seconds
            )
        };
        self.margins.push(format!(
            "{what}: {:.3}x (ratio IQR {:.3}x; IQR {}, {}), threshold {}{floor:.2}x",
            ratio.median,
            ratio.iqr,
            iqr(sides[0]),
            iqr(sides[1]),
            if strict { "> " } else { ">= " },
        ));
        if ratio.median < floor || (strict && ratio.median == floor) {
            self.failures.push(failure());
        }
    }

    /// Fail with `reason` when no pair was compared, so a renamed shape
    /// set cannot silently disarm a gate.
    fn armed(mut self, reason: &str) -> Self {
        if self.margins.is_empty() {
            self.failures.push(reason.into());
        }
        self
    }
}

/// Compare against a baseline document.
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
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut isa_skipped = 0usize;
    let Some(base_shapes) = baseline.get("shapes").and_then(|s| s.as_array()) else {
        verdict
            .failures
            .push("baseline has no `shapes` array".into());
        return verdict;
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
            let ratio = r.ratio("reference", name);
            let measured = ratio.median;
            let floor = base_speedup * (1.0 - threshold);
            let cut = format!("baseline {base_speedup:.2}x − {:.0}%", threshold * 100.0);
            verdict.pair(
                format!("{} / {name} speedup vs reference ({cut})", r.label),
                ratio,
                [(name, kr), ("reference", r.get("reference"))],
                (floor, false),
                || {
                    format!(
                        "{} / {name}: {measured:.2}x vs reference < {floor:.2}x ({cut})",
                        r.label
                    )
                },
            );
        }
    }
    if isa_skipped > 0 && verdict.margins.is_empty() {
        if isa_pinned {
            verdict.failures.push(format!(
                "every (shape, kernel) pair was skipped for ISA mismatch while the \
                 run's ISA was explicitly pinned — the pin and the baseline disagree; \
                 regenerate BENCH_baseline.json under the same NM_SPMM_ISA pin \
                 ({isa_skipped} pairs skipped)"
            ));
        } else {
            println!(
                "  WARNING: every (shape, kernel) pair was skipped for ISA mismatch — \
                 the gate is disarmed on this hardware; regenerate BENCH_baseline.json \
                 under this runner's ISA (or pin NM_SPMM_ISA) to re-arm it"
            );
        }
        return verdict;
    }
    verdict.armed(
        "no (shape, kernel) pair overlaps the baseline — the gate compared nothing; \
         regenerate BENCH_baseline.json for the current shape set",
    )
}

/// The measured plan's side of the A/B: its median must reach
/// [`AB_FLOOR`] of the same-run `rival` lane's (`why` names what losing
/// means).
fn hold_measured(verdict: &mut Verdict, r: &ShapeResult, rival: &str, why: &str) {
    let (Some(ev), Some(measured), Some(kr)) = (&r.evidence, r.maybe("measured"), r.maybe(rival))
    else {
        return;
    };
    let ratio = r.ratio(rival, "measured");
    verdict.pair(
        format!("{} measured/{rival}", r.label),
        ratio,
        [("measured", measured), (rival, kr)],
        (AB_FLOOR, false),
        || {
            format!(
                "{}: the measured plan ({:.2} GFLOP/s, mb={}, format {}) ran at {:.2}x {why}",
                r.label,
                measured.gflops,
                ev.cpu_tiling.mb,
                ev.storage.tag(),
                ratio.median,
            )
        },
    );
}

/// The `--assert-ab` gate, over every prefill shape in the run: a Quick
/// prefill grid holds only the derived tiling — the one the cost-model
/// default (`cpu_v3`) runs — so the measured path must cost nothing there.
fn check_ab(results: &[ShapeResult]) -> Verdict {
    let mut verdict = Verdict::default();
    for r in results.iter().filter(|r| !r.is_decode()) {
        hold_measured(
            &mut verdict,
            r,
            "cpu_v3",
            "the cost-model V3 plan — the measured path must cost nothing: it must \
             not lose to the static default whose tiling it re-times",
        );
    }
    verdict.armed(
        "--assert-ab compared nothing: no prefill shape carried an A/B lane \
         (run with --autotune quick|full and a shape set with prefill shapes)",
    )
}

/// The `--decode` gate, in the spirit of [`check_ab`] but for the skinny
/// band. Three claims are enforced on every decode shape in the run:
///
/// 1. **Evidence holds** — where the A/B lane ran, the measured plan must
///    not lose to the cost-model V3 default (decode is exactly where
///    GEMM-trained cost models are known to mislead, so evidence losing
///    here means the skinny candidates in `measure::tiling_candidates`
///    stopped winning).
/// 2. **Format evidence holds** — the measured plan must likewise hold
///    against the sliced rival lane; together with claim 1 the
///    evidence-picked storage format never loses to either same-run
///    format lane.
/// 3. **The prepared SpMV path earns its keep** — on `m = 1` shapes the
///    best prepared lane must beat both rivals outright: the scalar
///    `reference` (no staging, no SIMD) and `gemm4_forced` (the 4-row GEMM
///    tile padded onto the one-row input). Losing to either means the
///    decode path is pure complexity.
fn check_decode(results: &[ShapeResult]) -> Verdict {
    let mut verdict = Verdict::default();
    for r in results.iter().filter(|r| r.is_decode()) {
        hold_measured(
            &mut verdict,
            r,
            "cpu_v3",
            "the cost-model V3 plan — skinny candidates must not lose to the \
             GEMM default on a decode shape",
        );
        hold_measured(
            &mut verdict,
            r,
            "cpu_v3_sliced",
            "the sliced rival lane — the format dimension of the autotune grid \
             stopped tracking the better layout",
        );
        if r.m != 1 {
            continue;
        }
        let (best_name, best) = r.best_prepared();
        for rival in ["reference", "gemm4_forced"] {
            let Some(kr) = r.maybe(rival) else { continue };
            verdict.pair(
                format!("{} {rival}/{best_name}", r.label),
                r.ratio(rival, best_name),
                [(best_name, best), (rival, kr)],
                (1.0, true),
                || {
                    format!(
                        "{}: the prepared SpMV path ({:.6}s) does not beat {rival} \
                         ({:.6}s) — the decode path must outrun both the scalar \
                         reference and the forced GEMM tile",
                        r.label, best.seconds, kr.seconds,
                    )
                },
            );
        }
    }
    verdict.armed(
        "--decode gate compared nothing: no decode shape carried an A/B lane or \
         an m=1 rival (run a shape set containing decode-* shapes)",
    )
}

/// Print a gate's margins, then pass with `pass_line` or print every
/// failure under `tag` and exit 1.
fn enforce(verdict: &Verdict, pass_line: &str, tag: &str) {
    for m in &verdict.margins {
        println!("  {m}");
    }
    if verdict.failures.is_empty() {
        println!("{pass_line}");
        return;
    }
    for f in &verdict.failures {
        eprintln!("  {tag}: {f}");
    }
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_measured [--quick] [--decode] [--out PATH] [--check-against PATH] \
         [--threshold F] [--seed N] [--autotune off|quick|full] [--assert-ab]\n\
         \n\
         Lanes race in {RACE_REPS} rotating rounds and report their median and IQR;\n\
         a ratio between two lanes is the median of their per-round ratios.\n\
         Without --quick the full sweep takes minutes (~17 on a 2-vCPU host),\n\
         most of it the scalar reference on the 4096^3 shape.\n\
         --threshold F   allowed fractional regression of speedup-vs-reference,\n\
         \u{20}                strictly between 0 and 1 (default 0.25 = 25%)\n\
         --autotune M    also run the measured-plan A/B lane (Session::load under\n\
         \u{20}                short-run autotuning) next to the cost-model default\n\
         --assert-ab     fail (exit 1) when the measured plan's speed falls below\n\
         \u{20}                0.95x the cost-model plan's on any prefill shape; needs\n\
         \u{20}                --autotune\n\
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

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--quick" => quick = true,
            "--assert-ab" => assert_ab = true,
            "--decode" => decode_only = true,
            "--autotune" => {
                let value = value();
                // Validated exactly like the env form: garbage is a
                // structured usage error, never a silent fallback to Off.
                autotune = Some(AutotuneMode::from_name(&value).unwrap_or_else(|e| {
                    eprintln!("--autotune {value}: {e}");
                    std::process::exit(2);
                }));
            }
            "--out" => out = value(),
            "--check-against" => check = Some(value()),
            "--threshold" => threshold = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if !threshold_is_valid(threshold) {
        eprintln!("--threshold {threshold} is outside (0, 1)");
        usage();
    }
    // The flag wins over the environment; either way an unrecognized
    // mode is a hard usage error (exit 2), mirroring NM_SPMM_ISA.
    let autotune = autotune.unwrap_or_else(|| {
        AutotuneMode::from_env()
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
            .unwrap_or_default()
    });
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
    let kernel = MicroKernel::select().unwrap_or_else(|e| {
        eprintln!("micro-kernel selection failed: {e}");
        std::process::exit(2);
    });
    // Plans come from the A100 model: the auto-tuned blocking (not the
    // timing estimate) is what drives the CPU tile sizes. The session
    // pins the resolved micro-kernel across every layer it loads.
    let mut session = (SessionBuilder::new(a100_80g()).micro_kernel(kernel))
        .autotune(autotune)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("cannot build session: {e}");
            std::process::exit(2);
        });

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
            spd(r.ratio("cpu_v1", "cpu_v2").median),
            spd(r.ratio("cpu_v2", "cpu_v3").median),
            spd(r.speedup_vs_ref("cpu_v3")),
        ]);
    }
    println!();
    t.print();

    if results.iter().any(|r| r.evidence.is_some()) {
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
            let Some(ev) = &r.evidence else { continue };
            let measured = r.get("measured");
            t.row(&[
                r.label.to_string(),
                format!("{:.2}", r.get("cpu_v3").gflops),
                format!("{:.2}", measured.gflops),
                format!(
                    "{}/{}/{}/{}",
                    ev.cpu_tiling.mb, ev.cpu_tiling.nb, ev.cpu_tiling.kb, ev.cpu_tiling.mt
                ),
                ev.storage.tag(),
                spd(r.ratio("cpu_v3", "measured").median),
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
            let best = r.best_prepared().0;
            let vs_best = |name: &str| {
                r.maybe(name)
                    .map_or("-".to_string(), |_| spd(r.ratio(name, best).median))
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
        let baseline = (std::fs::read_to_string(&path).map_err(|e| format!("cannot read {e}")))
            .and_then(|text| JsonValue::parse(&text).map_err(|e| format!("malformed: {e}")))
            .unwrap_or_else(|e| {
                eprintln!("baseline {path}: {e}");
                std::process::exit(2);
            });
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
        enforce(
            &check_against(&results, &baseline, threshold, isa_pinned),
            "no regressions — gate passes",
            "REGRESSION",
        );
    }
    if assert_ab {
        enforce(
            &check_ab(&results),
            "plan A/B gate: measured plans hold on every prefill shape",
            "A/B FAILURE",
        );
    }
    if decode_only {
        enforce(
            &check_decode(&results),
            "decode gate: measured plans hold and the prepared SpMV path beats \
             both rivals on m=1",
            "DECODE FAILURE",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_kernels::CpuTiling;

    /// A lane whose one round took `seconds`.
    fn lane(seconds: f64, isa: Option<Isa>) -> KernelResult {
        KernelResult {
            seconds,
            rounds: vec![seconds],
            gflops: 1.0 / seconds,
            isa,
        }
    }

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
                ("reference", lane(1.0, None)),
                ("cpu_v3", lane(v3_seconds, Some(Isa::Scalar))),
            ],
            evidence: None,
        }
    }

    /// Attach a measured A/B lane that ran in `seconds`.
    fn with_ab(mut r: ShapeResult, seconds: f64) -> ShapeResult {
        r.kernels
            .push(("measured", lane(seconds, Some(Isa::Scalar))));
        r.evidence = Some(MeasuredChoice {
            cpu_tiling: CpuTiling {
                mb: 64,
                nb: 128,
                kb: 128,
                mt: 8,
            },
            storage: StorageFormat::RowMajor,
            gflops: 1.0 / seconds,
            samples: 3,
        });
        r
    }

    fn baseline(label: &str, speedup: f64) -> JsonValue {
        baseline_with_isa(label, speedup, None)
    }

    fn baseline_with_isa(label: &str, speedup: f64, isa: Option<&str>) -> JsonValue {
        let isa = isa.map_or(String::new(), |isa| format!(r#", "isa": "{isa}""#));
        JsonValue::parse(&format!(
            r#"{{"shapes": [{{"label": "{label}",
                 "kernels": {{"cpu_v3": {{"speedup_vs_ref": {speedup}{isa}}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn speedups_pair_the_rounds() {
        // Round by round the V3 lane is 2x, 1x, 3x faster; its median
        // round equals the reference's, but the paired speedup is 2x.
        let mut r = result_with_v3_seconds(1.0);
        r.kernels[0].1.rounds = vec![2.0, 3.0, 9.0];
        r.kernels[1].1.rounds = vec![1.0, 3.0, 3.0];
        assert_eq!(r.speedup_vs_ref("cpu_v3"), 2.0);
        assert_eq!(r.ratio("reference", "cpu_v3").iqr, 1.0);
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
        let verdict = check_against(&[at_floor], &baseline("A-512-75", 4.0), 0.5, false);
        assert!(verdict.failures.is_empty(), "measured == floor must pass");
        assert_eq!(verdict.margins.len(), 1, "one margin line per pair");
        assert!(
            verdict.margins[0].contains("2.000x") && verdict.margins[0].contains(">= 2.00x"),
            "{:?}",
            verdict.margins
        );
        // ...and one representable step below it fails.
        let below = result_with_v3_seconds(0.512); // speedup 1.953125
        let regressions = check_against(&[below], &baseline("A-512-75", 4.0), 0.5, false).failures;
        assert_eq!(regressions.len(), 1, "measured < floor must fail");
        assert!(regressions[0].contains("cpu_v3"));
    }

    #[test]
    fn tiny_threshold_arms_a_tight_gate() {
        // threshold → 0 means the floor sits just under the baseline.
        let r = result_with_v3_seconds(0.25); // 4.0x measured
        assert!(check_against(&[r], &baseline("A-512-75", 4.0), 1e-9, false)
            .failures
            .is_empty());
        let r = result_with_v3_seconds(0.251); // fractionally slower
        assert_eq!(
            check_against(&[r], &baseline("A-512-75", 4.0), 1e-9, false)
                .failures
                .len(),
            1
        );
    }

    #[test]
    fn empty_overlap_is_itself_a_failure() {
        let r = result_with_v3_seconds(0.5);
        let regressions =
            check_against(&[r], &baseline("renamed-shape", 4.0), 0.25, false).failures;
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
            &baseline_with_isa("A-512-75", 8.0, Some("avx512")),
            0.25,
            false,
        )
        .failures;
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
            &baseline_with_isa("A-512-75", 8.0, Some("avx512")),
            0.25,
            true,
        )
        .failures;
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("explicitly pinned"));
    }

    #[test]
    fn matching_isa_still_gates() {
        let r = result_with_v3_seconds(0.5); // scalar, 2.0x
        let regressions = check_against(
            &[r],
            &baseline_with_isa("A-512-75", 8.0, Some("scalar")),
            0.25,
            false,
        )
        .failures;
        assert_eq!(regressions.len(), 1, "same-ISA regressions must fire");
    }

    #[test]
    fn ab_gate_passes_when_measured_wins_or_ties() {
        // Measured faster than V3: clean pass.
        let r = with_ab(result_with_v3_seconds(0.5), 0.25);
        assert!(check_ab(&[r]).failures.is_empty());
        // Measured exactly at the 5% noise floor (ratio 0.95): passes —
        // the gate fires on `ratio < 0.95`, strictly — and still prints
        // its margin.
        let r = with_ab(result_with_v3_seconds(0.95), 1.0);
        let verdict = check_ab(&[r]);
        assert!(verdict.failures.is_empty(), "ratio == 0.95 must pass");
        assert_eq!(
            verdict.margins,
            ["A-512-75 measured/cpu_v3: 0.950x (ratio IQR 0.000x; IQR measured 0.0%, cpu_v3 0.0%), \
              threshold >= 0.95x"]
        );
    }

    #[test]
    fn ab_gate_fails_when_measured_loses_to_the_cost_model() {
        // Measured twice as slow as the V3 default: the whole point of
        // evidence-based planning failed on this shape.
        let r = with_ab(result_with_v3_seconds(0.5), 1.0);
        let failures = check_ab(&[r]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("must not lose"));
    }

    #[test]
    fn ab_gate_comparing_nothing_is_a_failure() {
        // No A/B lane at all (autotune off) …
        let failures = check_ab(&[result_with_v3_seconds(0.5)]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
        // … and a lane on a decode shape doesn't arm it either.
        let mut r = with_ab(result_with_v3_seconds(0.5), 0.25);
        r.m = 8;
        let failures = check_ab(&[r]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
    }

    #[test]
    fn legacy_baseline_without_isa_still_gates() {
        // Pre-dispatch baselines carry no isa field; they keep gating as
        // before rather than being silently skipped.
        let r = result_with_v3_seconds(0.5); // 2.0x
        let regressions = check_against(&[r], &baseline("A-512-75", 8.0), 0.25, false).failures;
        assert_eq!(regressions.len(), 1);
    }

    /// An `m = 1` decode shape: the fastest ladder lane runs in
    /// `prepared_seconds`, the rivals as given.
    fn decode_result(
        prepared_seconds: f64,
        reference_seconds: f64,
        gemm_seconds: f64,
    ) -> ShapeResult {
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
            evidence: None,
        }
    }

    #[test]
    fn decode_gate_passes_when_the_prepared_path_beats_both_rivals() {
        let r = decode_result(0.1, 0.5, 0.4);
        let verdict = check_decode(&[r]);
        assert!(verdict.failures.is_empty());
        // A margin line per rival, measured against the fastest lane.
        assert_eq!(verdict.margins.len(), 2);
        assert!(verdict.margins[0].contains("reference/cpu_v1: 5.000x"));
        assert!(verdict.margins[1].contains("gemm4_forced/cpu_v1: 4.000x"));
    }

    #[test]
    fn decode_gate_fails_when_a_rival_wins_or_ties() {
        // The scalar reference outruns every prepared lane: the decode
        // path is pure complexity on this shape, which must fail.
        let failures = check_decode(&[decode_result(0.5, 0.1, 1.0)]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("reference"));
        // A tie is not a win — the gate demands strictly faster.
        let failures = check_decode(&[decode_result(0.5, 0.5, 1.0)]).failures;
        assert_eq!(failures.len(), 1);
        // Losing only to the forced GEMM tile also fires.
        let failures = check_decode(&[decode_result(0.5, 1.0, 0.25)]).failures;
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
        let failures = check_decode(&[r]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("must not lose"));
        // At the 5% noise floor it passes (strict `< 0.95`).
        let mut r = with_ab(result_with_v3_seconds(0.95), 1.0);
        r.m = 8;
        assert!(check_decode(&[r]).failures.is_empty());
    }

    #[test]
    fn decode_gate_holds_measured_plans_to_the_sliced_lane() {
        // An m=8 decode shape where the measured plan keeps pace with the
        // row-major V3 lane but runs twice as slow as the sliced rival:
        // the format dimension of the grid lost evidence it should hold.
        let mut r = with_ab(result_with_v3_seconds(1.0), 1.0);
        r.m = 8;
        r.kernels
            .push(("cpu_v3_sliced", lane(0.5, Some(Isa::Scalar))));
        let failures = check_decode(&[r]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("sliced rival lane"));
        assert!(failures[0].contains("rowmajor"));
        // Within the 5% noise floor both format gates pass.
        let mut r = with_ab(result_with_v3_seconds(1.0), 1.0);
        r.m = 8;
        r.kernels
            .push(("cpu_v3_sliced", lane(0.95, Some(Isa::Scalar))));
        assert!(check_decode(&[r]).failures.is_empty());
    }

    #[test]
    fn decode_gate_comparing_nothing_is_a_failure() {
        // Prefill-only results (m = 512) arm nothing …
        let failures = check_decode(&[result_with_v3_seconds(0.5)]).failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("compared nothing"));
        // … and so does an m=8 decode shape with neither an A/B lane nor
        // m=1 rivals.
        let mut r = result_with_v3_seconds(0.5);
        r.m = 8;
        let failures = check_decode(&[r]).failures;
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
        let sb =
            NmSparseMatrix::prune(&b, NmConfig::new(2, 8, 32).unwrap(), PrunePolicy::Magnitude)
                .unwrap();
        let (w, q) = (sb.w() as f64, sb.q() as f64);
        let want = 4.0 * w * 32.0 + w * q + 4.0 * 64.0 + 4.0 * 32.0;
        assert_eq!(decode_traffic_bytes(1, 32, 64, &sb), want);
    }
}
